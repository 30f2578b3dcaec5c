package cliio

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.txt")
	err := WriteFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "hello\n")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// A second WriteFile truncates.
	if err := WriteFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "bye\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "bye\n" {
		t.Fatalf("content = %q, want %q", b, "bye\n")
	}
}

func TestWriteFilePropagatesFnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.txt")
	sentinel := errors.New("boom")
	err := WriteFile(path, func(io.Writer) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped %v", err, sentinel)
	}
	if !strings.Contains(err.Error(), path) {
		t.Fatalf("err %q does not name the file", err)
	}
}

func TestWriteFileBadDirectory(t *testing.T) {
	err := WriteFile(filepath.Join(t.TempDir(), "missing", "out.txt"),
		func(io.Writer) error { return nil })
	if err == nil {
		t.Fatal("want error for unwritable path")
	}
}

func TestWriteFileStdout(t *testing.T) {
	// "-" must not create a file named "-"; it writes to stdout.
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	if err := WriteFile(Stdout, func(w io.Writer) error {
		_, err := io.WriteString(w, "to stdout\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "-")); !os.IsNotExist(err) {
		t.Fatalf("WriteFile(%q) created a file named %q", Stdout, Stdout)
	}
}
