// Command docscheck keeps the documentation's file references honest: it
// scans markdown files for repository paths (internal/..., cmd/...,
// examples/..., docs/..., specs/...) and the comments of Go files for
// markdown file names, and fails if any referenced file or directory does
// not exist. CI runs it in the docs job, so renaming or deleting a file that
// docs/ARCHITECTURE.md points at — or citing a document nobody wrote —
// breaks the build until the reference is fixed.
//
// It also keeps the internal/ surface to what programs use: it type-checks
// the non-test files of every module under the root (the benchmark module
// included) and fails on an exported name declared in an internal/ package
// that no non-test file uses — a function, type, constant, variable,
// method or field only tests need. A method whose receiver implements an
// interface holding it counts as used. The allowed map in surface.go lists
// the names that stay anyway, each with its reason.
//
// Usage:
//
//	docscheck [-root .] README.md docs/ARCHITECTURE.md cmd internal
//
// A directory argument stands for the .go files under it.
package main

import (
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
)

// pathRef matches repository-relative path references in prose or code
// blocks: a known top-level directory followed by path segments. The
// character class excludes quotes and punctuation so trailing ")", "'s",
// or "." end the match cleanly; a trailing dot is only consumed when it
// starts a file extension.
var pathRef = regexp.MustCompile(`\b(?:internal|cmd|examples|docs|specs)/[A-Za-z0-9_\-./]*[A-Za-z0-9_\-]`)

// mdRef matches a markdown file cited by name, with or without a directory.
// A glob such as "*.md" has no name before the extension and does not match.
var mdRef = regexp.MustCompile(`[A-Za-z0-9_\-./]*[A-Za-z0-9_\-]\.md\b`)

// defaultArgs is what CI checks: the documents and the Go tree.
var defaultArgs = []string{
	"README.md", "docs/ARCHITECTURE.md", "docs/WORKER_PROTOCOL.md", "docs/SCENARIOS.md",
	"bench_test.go", "cmd", "internal", "examples", "bench",
}

// refs returns what one file references: repository paths anywhere in a
// document, markdown names in the whole-line comments of a Go file.
func refs(name string, data []byte) []string {
	if !strings.HasSuffix(name, ".go") {
		return pathRef.FindAllString(string(data), -1)
	}
	var out []string
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "//") {
			out = append(out, mdRef.FindAllString(line, -1)...)
		}
	}
	return out
}

// check scans the given files, and the .go files under the given
// directories, relative to root and returns one message per broken reference
// (an argument that cannot be read, or a referenced path that does not
// exist), sorted and deduplicated.
func check(root string, args []string) []string {
	seen := make(map[string]bool)
	var problems []string
	addProblem := func(msg string) {
		if !seen[msg] {
			seen[msg] = true
			problems = append(problems, msg)
		}
	}
	for _, arg := range args {
		top := filepath.Join(root, arg)
		err := filepath.WalkDir(top, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || (path != top && !strings.HasSuffix(path, ".go")) {
				return nil
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			name, _ := filepath.Rel(root, path) // path was built from root
			for _, ref := range refs(name, data) {
				if _, err := os.Stat(filepath.Join(root, ref)); err != nil {
					addProblem(fmt.Sprintf("%s references %s, which does not exist", name, ref))
				}
			}
			return nil
		})
		if err != nil {
			addProblem(fmt.Sprintf("%s: %v", arg, err))
		}
	}
	slices.Sort(problems)
	return problems
}

func main() {
	root := flag.String("root", ".", "repository root the references resolve against")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		args = defaultArgs
	}
	problems := check(*root, args)
	surface, err := surfaceProblems(*root, allowed)
	if err != nil {
		surface = []string{err.Error()}
	}
	problems = append(problems, surface...)
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "docscheck: "+p)
	}
	if len(problems) > 0 {
		os.Exit(1)
	}
	fmt.Printf("docscheck: %d files and directories clean, no test-only exports\n", len(args))
}
