package main

import (
	"io/fs"
	"path/filepath"
	"sync/atomic"

	"topoctl/internal/wal"
)

// countingFS wraps a wal.FS and counts what the WAL asks of the device:
// bytes written and fsyncs issued through the files it opens. It is the
// harness's view of the wal layer's I/O, injected through wal.Options.FS.
type countingFS struct {
	wal.FS
	bytes atomic.Int64
	syncs atomic.Int64
}

func (c *countingFS) Create(name string) (wal.File, error) { return c.wrap(c.FS.Create(name)) }
func (c *countingFS) Append(name string) (wal.File, error) { return c.wrap(c.FS.Append(name)) }

func (c *countingFS) wrap(f wal.File, err error) (wal.File, error) {
	if err != nil {
		return nil, err
	}
	return &countingFile{f, c}, nil
}

type countingFile struct {
	wal.File
	fs *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.bytes.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	f.fs.syncs.Add(1)
	return f.File.Sync()
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
