package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// A checkout that has used up its allowance never waits, whatever the
// host is doing, and a run's allowance only shrinks by what was waited.
func TestQuietHostKeepsToItsAllowance(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, waitedFile), []byte("300.0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	left := maxWaitPerRun
	start := time.Now()
	waited := quietHost(context.Background(), dir, &left)
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("a spent allowance still cost %s", took)
	}
	if left != maxWaitPerRun-waited {
		t.Errorf("waited %s, the run's allowance went from %s to %s", waited, maxWaitPerRun, left)
	}

	none := time.Duration(0)
	if waited := quietHost(context.Background(), t.TempDir(), &none); waited >= 2*waitStep || none > 0 {
		t.Errorf("a run with no allowance waited %s", waited)
	}
}

func TestSlowdownOfTwoIsARatio(t *testing.T) {
	if r := slowdownOfTwo(); r < 0.5 || r > 20 {
		t.Errorf("two threads at once took %.2f times one alone", r)
	}
}
