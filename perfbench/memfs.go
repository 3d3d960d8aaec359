package main

import (
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"waitfree/internal/fsx"
)

// memFS is an in-memory fsx.FS. service-mixed stores its job files and
// cache entries in one, so its latencies measure the program's own
// persistence work (encoding, checksums, the atomic-write protocol, the
// retry policy) and not the fsync latency of a shared disk, which varied
// several-fold between runs on the machine the benchmark was built on.
// Sync and SyncDir succeed at once; every other operation behaves like
// the real filesystem's.
type memFS struct {
	mu    sync.Mutex
	files map[string][]byte
	dirs  map[string]bool
	seq   int
}

func newMemFS() *memFS {
	return &memFS{files: make(map[string][]byte), dirs: map[string]bool{"/": true, ".": true}}
}

func notExist(op, name string) error {
	return &fs.PathError{Op: op, Path: name, Err: fs.ErrNotExist}
}

func (m *memFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[filepath.Clean(name)]
	if !ok {
		return nil, notExist("open", name)
	}
	return append([]byte(nil), data...), nil
}

func (m *memFS) CreateTemp(dir, pattern string) (fsx.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir = filepath.Clean(dir)
	if !m.dirs[dir] {
		return nil, notExist("createtemp", dir)
	}
	m.seq++
	base := strings.Replace(pattern, "*", fmt.Sprint(m.seq), 1)
	if !strings.Contains(pattern, "*") {
		base += fmt.Sprint(m.seq)
	}
	name := filepath.Join(dir, base)
	m.files[name] = nil
	return &memFile{fs: m, name: name}, nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	data, ok := m.files[oldpath]
	if !ok {
		return notExist("rename", oldpath)
	}
	delete(m.files, oldpath)
	m.files[newpath] = data
	return nil
}

func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	if _, ok := m.files[name]; !ok {
		return notExist("remove", name)
	}
	delete(m.files, name)
	return nil
}

func (m *memFS) MkdirAll(dir string, _ fs.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for d := filepath.Clean(dir); !m.dirs[d]; d = filepath.Dir(d) {
		m.dirs[d] = true
	}
	return nil
}

func (m *memFS) ReadDir(name string) ([]fs.DirEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	if !m.dirs[name] {
		return nil, notExist("readdir", name)
	}
	var out []fs.DirEntry
	for p, data := range m.files {
		if filepath.Dir(p) == name {
			out = append(out, memEntry{name: filepath.Base(p), size: int64(len(data))})
		}
	}
	for d := range m.dirs {
		if d != name && filepath.Dir(d) == name {
			out = append(out, memEntry{name: filepath.Base(d), dir: true})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

func (m *memFS) SyncDir(string) error { return nil }

// memFile is an open memFS file; its bytes live in the memFS map, so
// they are visible to the FS as soon as they are written.
type memFile struct {
	fs     *memFS
	name   string
	closed bool
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return 0, fs.ErrClosed
	}
	f.fs.files[f.name] = append(f.fs.files[f.name], p...)
	return len(p), nil
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return 0, fs.ErrClosed
	}
	data := f.fs.files[f.name]
	if end := off + int64(len(p)); end > int64(len(data)) {
		data = append(data, make([]byte, end-int64(len(data)))...)
	}
	copy(data[off:], p)
	f.fs.files[f.name] = data
	return len(p), nil
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	data := f.fs.files[f.name]
	if off >= int64(len(data)) {
		return 0, io.EOF
	}
	n := copy(p, data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) Close() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return fs.ErrClosed
	}
	f.closed = true
	return nil
}

func (f *memFile) Sync() error             { return nil }
func (f *memFile) Chmod(fs.FileMode) error { return nil }
func (f *memFile) Name() string            { return f.name }

// memEntry is a ReadDir entry.
type memEntry struct {
	name string
	size int64
	dir  bool
}

func (e memEntry) Name() string { return e.name }
func (e memEntry) IsDir() bool  { return e.dir }
func (e memEntry) Type() fs.FileMode {
	if e.dir {
		return fs.ModeDir
	}
	return 0
}
func (e memEntry) Info() (fs.FileInfo, error) { return e, nil }
func (e memEntry) Size() int64                { return e.size }
func (e memEntry) Mode() fs.FileMode          { return e.Type() | 0o644 }
func (e memEntry) ModTime() time.Time         { return time.Time{} }
func (e memEntry) Sys() any                   { return nil }

// countFS is the real filesystem with its data reads and writes counted:
// the traced run's view of verify-spill's spill tier. (An fsx.FaultFS
// there would keep a trace entry for each of about a million operations.)
type countFS struct {
	fsx.OS
	reads, writes atomic.Int64
}

func (c *countFS) ReadFile(name string) ([]byte, error) {
	c.reads.Add(1)
	return c.OS.ReadFile(name)
}

func (c *countFS) CreateTemp(dir, pattern string) (fsx.File, error) {
	f, err := c.OS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c}, nil
}

type countFile struct {
	fsx.File
	fs *countFS
}

func (f *countFile) Write(p []byte) (int, error) {
	f.fs.writes.Add(1)
	return f.File.Write(p)
}

func (f *countFile) WriteAt(p []byte, off int64) (int, error) {
	f.fs.writes.Add(1)
	return f.File.WriteAt(p, off)
}

func (f *countFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.reads.Add(1)
	return f.File.ReadAt(p, off)
}
