// Package cliio provides the small, error-checked file plumbing shared
// by the command-line tools. Its job is to make the easy mistake hard:
// a buffered writer whose Flush error is dropped silently truncates
// output on full disks and broken pipes, and a tool that log.Fatals on
// an unrelated error must still have flushed what it already produced.
// Every writer handed out here is flushed and closed with the errors
// joined into the caller's return value.
package cliio

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
)

// Stdout is the path spelling that routes output to standard output
// instead of a file, following the Unix convention.
const Stdout = "-"

// WriteFile creates (or truncates) path and hands fn a buffered writer.
// The buffer is flushed and the file closed even when fn fails, and
// every error — fn's, the flush's, the close's — is joined into the
// return value, so a full disk cannot masquerade as success. Path "-"
// writes to stdout (flushed, not closed).
func WriteFile(path string, fn func(io.Writer) error) error {
	if path == Stdout {
		bw := bufio.NewWriter(os.Stdout)
		return errors.Join(fn(bw), bw.Flush())
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = errors.Join(fn(bw), bw.Flush(), f.Close())
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
