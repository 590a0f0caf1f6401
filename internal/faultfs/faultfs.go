// Package faultfs is the filesystem seam all durability-critical I/O in
// this repo goes through: the WAL, engine snapshots, and their parent-
// directory syncs. Production code takes an FS value (almost always
// faultfs.OS, a thin passthrough to the os package) so tests can swap in
// Faulty, which injects short writes, Sync errors, torn final writes,
// and bit-flips at chosen offsets — turning "does recovery survive a
// crash here?" into a deterministic table test instead of a prayer.
//
// The interface is deliberately small: exactly the operations a
// write-ahead log and an atomic snapshot need, nothing more. Read paths
// that cannot lose data (LoadEngine and friends) keep using os
// directly.
package faultfs

import (
	"io"
	"os"
	"path/filepath"
)

// File is the subset of *os.File the durability paths use. Write and
// Sync are the injection-interesting calls; the rest exist so recovery
// code can read segments back through the same seam it wrote them.
type File interface {
	io.Reader
	io.ReaderAt
	io.Writer
	io.Closer
	// Sync flushes the file's data to stable storage (fsync). A write is
	// not durable until Sync returns nil.
	Sync() error
	// Seek repositions the read/write offset.
	Seek(offset int64, whence int) (int64, error)
	// Name returns the path the file was opened with.
	Name() string
}

// FS is the filesystem surface the WAL and snapshot writers operate on.
type FS interface {
	// Create truncates-or-creates a file for writing (os.Create).
	Create(name string) (File, error)
	// Open opens a file read-only (os.Open).
	Open(name string) (File, error)
	// OpenFile is the general open (os.OpenFile); the WAL uses it for
	// append-mode segment handles.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Rename atomically replaces newpath with oldpath (os.Rename). The
	// commit point of every atomic-replace protocol in this repo.
	Rename(oldpath, newpath string) error
	// Remove deletes a file (os.Remove).
	Remove(name string) error
	// MkdirAll creates a directory tree (os.MkdirAll).
	MkdirAll(path string, perm os.FileMode) error
	// ReadDir lists a directory (os.ReadDir).
	ReadDir(name string) ([]os.DirEntry, error)
	// Stat stats a path (os.Stat).
	Stat(name string) (os.FileInfo, error)
	// Truncate truncates the named file (os.Truncate); recovery uses it
	// to drop a torn WAL tail.
	Truncate(name string, size int64) error
	// SyncDir fsyncs the directory itself, making renames and removals
	// inside it durable. A rename is not crash-safe until the parent
	// directory is synced.
	SyncDir(dir string) error
}

// OS is the production FS: a passthrough to the os package.
var OS FS = osFS{}

type osFS struct{}

func (osFS) Create(name string) (File, error) { return os.Create(name) }
func (osFS) Open(name string) (File, error)   { return os.Open(name) }
func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) ReadDir(name string) ([]os.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) Stat(name string) (os.FileInfo, error)        { return os.Stat(name) }
func (osFS) Truncate(name string, size int64) error       { return os.Truncate(name, size) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(filepath.Clean(dir))
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		_ = d.Close()
		return err
	}
	return d.Close()
}
