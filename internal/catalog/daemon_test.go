package catalog

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/param"
)

// -pprof, declared once for both daemons, serves net/http/pprof's index on
// a listener of its own: here an ephemeral port.
func TestPprofListener(t *testing.T) {
	fs := flag.NewFlagSet("daemon", flag.ContinueOnError)
	d := NewDaemon("daemon", fs, io.Discard)
	if err := fs.Parse([]string{"-pprof", "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
	ln, err := servePprof(*d.pprof)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	resp, err := http.Get("http://" + ln.Addr().String() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Fatalf("GET /debug/pprof/: %d, %v, %.200q", resp.StatusCode, err, body)
	}
}

// A daemon points the process logger, where the bridges report a failed
// measurement, at stderr behind the program's prefix: one failing
// exec-bridge evaluation writes one such line, and none under -quiet.
func TestDaemonLogsBridgeFailures(t *testing.T) {
	t.Cleanup(func() {
		log.SetOutput(os.Stderr)
		log.SetPrefix("")
		log.SetFlags(log.LstdFlags)
	})
	for _, quiet := range []bool{false, true} {
		stderr, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
		if err != nil {
			t.Fatal(err)
		}
		defer stderr.Close()
		saved := os.Stderr
		os.Stderr = stderr // what NewDaemon and Catalog see as stderr
		fs := flag.NewFlagSet("daemon", flag.ContinueOnError)
		d := NewDaemon("daemon", fs, io.Discard)
		err = fs.Parse([]string{"-dataset", "test", "-quiet=" + fmt.Sprint(quiet)})
		if err == nil {
			_, err = d.Catalog()
		}
		os.Stderr = saved
		if err != nil {
			t.Fatal(err)
		}

		e, err := NewExecEvaluator("/definitely/not/a/binary", param.MustSpace(param.Grid("a", 0, 4, 5), param.Grid("b", 0, 4, 5)), 1)
		if err != nil {
			t.Fatal(err)
		}
		if objs := e.Evaluate(param.Config{0, 0}); objs != nil {
			t.Fatalf("unstartable command returned %v", objs)
		}
		data, err := os.ReadFile(stderr.Name())
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.FieldsFunc(string(data), func(r rune) bool { return r == '\n' })
		switch {
		case quiet && len(lines) != 0:
			t.Fatalf("-quiet: stderr = %q, want nothing", lines)
		case !quiet && (len(lines) != 1 || !strings.HasPrefix(lines[0], "daemon: exec bridge /definitely/not/a/binary: ")):
			t.Fatalf("stderr = %q, want one line prefixed \"daemon: exec bridge\"", lines)
		}
	}
}
