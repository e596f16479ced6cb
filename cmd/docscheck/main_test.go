package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeFile(t *testing.T, root, name, content string) {
	t.Helper()
	p := filepath.Join(root, name)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCheckFindsBrokenReferences(t *testing.T) {
	root := t.TempDir()
	writeFile(t, root, "internal/core/core.go", "package core")
	writeFile(t, root, "docs/GOOD.md",
		"See `internal/core/core.go` and the `internal/core` package, plus [cmd/tool](cmd/tool).")
	writeFile(t, root, "cmd/tool/main.go", "package main")

	if problems := check(root, []string{"docs/GOOD.md"}); len(problems) != 0 {
		t.Fatalf("clean doc reported problems: %v", problems)
	}

	writeFile(t, root, "docs/BAD.md",
		"Points at `internal/core/gone.go`, specs/nope.json, and internal/missing twice: internal/missing.")
	problems := check(root, []string{"docs/BAD.md"})
	if len(problems) != 3 {
		t.Fatalf("problems = %v, want 3 (deduplicated)", problems)
	}
	for _, p := range problems {
		if !strings.Contains(p, "docs/BAD.md references") {
			t.Fatalf("problem does not name the doc: %q", p)
		}
	}
}

func TestCheckTrailingPunctuationAndPossessives(t *testing.T) {
	root := t.TempDir()
	writeFile(t, root, "internal/worker/client.go", "package worker")
	// Trailing ')', '.', ',' and possessive "'s" must not be treated as
	// part of the path.
	writeFile(t, root, "docs/D.md",
		"(internal/worker/client.go), internal/worker's pool, end internal/worker.")
	if problems := check(root, []string{"docs/D.md"}); len(problems) != 0 {
		t.Fatalf("punctuation handling broke: %v", problems)
	}
}

func TestCheckGoComments(t *testing.T) {
	root := t.TempDir()
	writeFile(t, root, "docs/ARCHITECTURE.md", "# Architecture")
	// A directory argument stands for the .go files under it. Only a
	// markdown name in a whole-line comment is a reference: not a string,
	// not a "*.md" glob, not a non-Go file.
	writeFile(t, root, "internal/a/good.go",
		"// Package a; see docs/ARCHITECTURE.md.\npackage a\n\nconst glob = \"NOPE.md\" // every *.md file\n")
	writeFile(t, root, "internal/a/notes.txt", "// see NOPE.md")
	if problems := check(root, []string{"internal"}); len(problems) != 0 {
		t.Fatalf("clean tree reported problems: %v", problems)
	}

	writeFile(t, root, "internal/b/bad.go", "package b\n\n\t// rationale in DESIGN.md §1\nvar x int\n")
	problems := check(root, []string{"internal"})
	if len(problems) != 1 || problems[0] != "internal/b/bad.go references DESIGN.md, which does not exist" {
		t.Fatalf("problems = %q, want the one dangling DESIGN.md", problems)
	}
}

func TestCheckMissingDocFile(t *testing.T) {
	root := t.TempDir()
	problems := check(root, []string{"docs/NOPE.md"})
	if len(problems) != 1 || !strings.Contains(problems[0], "docs/NOPE.md") {
		t.Fatalf("problems = %v", problems)
	}
}

func TestCheckAgainstThisRepository(t *testing.T) {
	// The real docs must be clean against the real tree — the same
	// invocation CI runs.
	root := "../.."
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Skip("not running from the repository tree")
	}
	if problems := check(root, defaultArgs); len(problems) != 0 {
		t.Fatalf("repository docs have broken references:\n%s", strings.Join(problems, "\n"))
	}
}
