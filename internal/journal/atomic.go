package journal

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
)

// WriteFileAtomic writes a file via a same-directory temp file, fsync, and
// rename, so a crash at any instant leaves either the previous content or
// the complete new content — never a half-written artifact. The write
// callback streams the content (CSV encoders, JSON encoders, raw bytes all
// fit); any callback or sync error aborts the write and removes the temp
// file, leaving path untouched. The file is created 0644, as the journal's
// own files are.
func WriteFileAtomic(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	// os.CreateTemp makes the file 0600.
	if err = tmp.Chmod(0o644); err != nil {
		return err
	}
	if err = write(tmp); err != nil {
		return err
	}
	// Sync before rename: on many filesystems an un-synced rename can
	// surface after a crash as a zero-length file at the final path.
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// Durably record the rename itself; best-effort on filesystems that
	// refuse directory fsync.
	if d, derr := os.Open(dir); derr == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// WriteJSONAtomic atomically writes v as indented JSON.
func WriteJSONAtomic(path string, v any) error {
	return WriteFileAtomic(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}

// ReadJSON reads a JSON file into v; a missing file returns os.ErrNotExist.
func ReadJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}
