package main

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"dblayout"
	"dblayout/internal/control"
	"dblayout/internal/migrate"
)

// TestExitCodes pins the documented exit-code table: every failure class maps
// to its own code, wrapped or not, and the retry-exhausted wrapper does not
// leak its cause's class.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{errors.New("anything else"), 1},
		{dblayout.ErrInfeasible, 2},
		{fmt.Errorf("solving: %w", dblayout.ErrBudgetExceeded), 3},
		{dblayout.ErrModelFailure, 4},
		{context.Canceled, 5},
		{context.DeadlineExceeded, 5},
		{&migrate.AbortError{Failed: []int{2}, Reason: "write failed"}, 6},
		{fmt.Errorf("executing migration: %w", migrate.ErrScratchExhausted), 7},
		{&migrate.CorruptError{Record: 3, Reason: "bad frame"}, 8},
		{fmt.Errorf("resuming: %w", migrate.ErrJournalCorrupt), 8},
		{&control.CorruptError{Record: 1, Reason: "impossible epoch"}, 8},
		{control.ErrControllerCorrupt, 8},
		{&control.RetryError{Attempts: 3, Cause: &migrate.AbortError{}, Reason: "abort"}, 9},
		{control.ErrRetriesExhausted, 9},
	}
	for _, tc := range cases {
		if got := exitCode(tc.err); got != tc.want {
			t.Errorf("exitCode(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
	// A retry chain that died on an abort is reported as exhaustion (9),
	// never as the abort (6) the caller was told would be retried.
	rerr := &control.RetryError{Attempts: 2, Cause: migrate.ErrMigrationAborted, Reason: "abort"}
	if errors.Is(rerr, migrate.ErrMigrationAborted) {
		t.Error("RetryError must not unwrap to its cause")
	}
}

func TestMergeFailed(t *testing.T) {
	got := mergeFailed([]int{2, 0}, []int{0, 3, 2, 1})
	want := []int{2, 0, 3, 1}
	if len(got) != len(want) {
		t.Fatalf("mergeFailed = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mergeFailed = %v, want %v", got, want)
		}
	}
}

// TestDecodeProblemRejectsOutOfRangeMB checks that the problem decoder
// refuses a size_mb or capacity_mb whose byte count would overflow an int64
// (it used to wrap around to a 1 MiB size that validation accepts), and one
// that is not positive, naming the field.
func TestDecodeProblemRejectsOutOfRangeMB(t *testing.T) {
	const huge = "17592186044417" // 2^44 + 1
	doc := func(size, capacity string) []byte {
		return []byte(`{"objects": [{"name": "T", "size_mb": ` + size + `}],
			"targets": [{"name": "d0", "capacity_mb": ` + capacity + `, "model": "@no-such-model.json"}]}`)
	}
	for _, tc := range []struct {
		data  []byte
		field string
	}{
		{doc(huge, "64"), "size_mb"},
		{doc("0", "64"), "size_mb"},
		{doc("8", huge), "capacity_mb"},
		{doc("8", "-1"), "capacity_mb"},
	} {
		_, _, err := decodeProblem(tc.data)
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("decodeProblem(%s) = %v, want an error naming %s", tc.data, err, tc.field)
		}
	}
}
