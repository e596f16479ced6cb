package catalog

import (
	"flag"
	"io"
	"net/http"
	_ "net/http/pprof"
	"strings"
	"testing"
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
