package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sched"
)

func TestRunPrintsTimelines(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := run([]string{"-app", "tpcc", "-requests", "6", "-limit", "2", "-seed", "7"}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	text := out.String()
	if !strings.Contains(text, "tpcc: 6 requests traced") {
		t.Fatalf("header missing: %s", text)
	}
	for _, row := range []string{"progress", "CPI", "L2ref/ins", "missratio"} {
		if !strings.Contains(text, row) {
			t.Fatalf("%s row missing:\n%s", row, text)
		}
	}
	// -limit 2 prints exactly two timelines.
	if got := strings.Count(text, "progress"); got != 2 {
		t.Fatalf("printed %d timelines, want 2", got)
	}
}

// Identical seeds produce byte-identical dumps — rbvtrace output is part of
// the deterministic surface users compare across machines.
func TestRunIsDeterministic(t *testing.T) {
	dump := func() string {
		var out, errBuf bytes.Buffer
		if code := run([]string{"-app", "webwork", "-requests", "3", "-limit", "3", "-seed", "11"}, &out, &errBuf); code != 0 {
			t.Fatalf("exit %d: %s", code, errBuf.String())
		}
		return out.String()
	}
	if a, b := dump(), dump(); a != b {
		t.Fatal("identical invocations diverged")
	}
}

func TestRunBuckets(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := run([]string{"-app", "tpcc", "-requests", "3", "-limit", "1", "-buckets", "5"}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	// 5 buckets: the progress header ends at exactly 100% in 5 steps.
	if !strings.Contains(out.String(), "20%     40%     60%     80%    100%") {
		t.Fatalf("expected 5 progress buckets:\n%s", out.String())
	}
}

func TestRunUnknownAppExitsTwo(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := run([]string{"-app", "nosuch"}, &out, &errBuf)
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errBuf.String(), "rbvtrace:") {
		t.Fatalf("error not reported: %s", errBuf.String())
	}
}

func TestRunBadFlagExitsTwo(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errBuf); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

// -topology overrides the machine: a half-clock topology stretches every
// request's virtual time, which shows up as a different (still
// deterministic) dump; a bad spec exits 2 naming the field.
func TestRunTopologyOverride(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-app", "webserver", "-requests", "2", "-limit", "1",
		"-topology", "pkg=1:0.5,3:1:8;clock=2.5"}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "webserver: 2 requests traced") {
		t.Fatalf("header missing: %s", out.String())
	}
	out.Reset()
	errBuf.Reset()
	if code := run([]string{"-topology", "pkg=2:-1"}, &out, &errBuf); code != 2 {
		t.Fatalf("bad topology spec should exit 2, got %d", code)
	}
	if !strings.Contains(errBuf.String(), "FreqScale") {
		t.Fatalf("error should name the offending field: %s", errBuf.String())
	}
}

// -policy selects a registered scheduler. round-robin is the kernel's
// default, so naming it reproduces the plain dump; every other policy runs
// on the threshold and signature bank of rbvtrace's calibration run and
// schedules this TPCH load differently. Unknown names are usage errors.
func TestRunPolicyFlag(t *testing.T) {
	dump := func(args ...string) (string, string, int) {
		var out, errBuf bytes.Buffer
		code := run(append([]string{"-app", "tpch", "-requests", "12", "-limit", "1"}, args...), &out, &errBuf)
		return out.String(), errBuf.String(), code
	}
	plain, _, code := dump()
	if code != 0 {
		t.Fatalf("plain run exit %d", code)
	}
	for _, name := range sched.PolicyNames() {
		out, stderr, code := dump("-policy", name)
		if code != 0 {
			t.Fatalf("-policy %s: exit %d: %s", name, code, stderr)
		}
		if same := out == plain; same != (name == "round-robin") {
			t.Fatalf("-policy %s: dump identical to the default run: %v", name, same)
		}
	}
	_, stderr, code := dump("-policy", "no-such-policy")
	if code != 2 || !strings.Contains(stderr, "unknown policy") {
		t.Fatalf("-policy no-such-policy: exit %d, stderr %q; want exit 2 naming the unknown policy", code, stderr)
	}
}

// The dump prints each request's leading system calls, so rbvtrace
// records the streams that the registry's runs leave off.
func TestRunPrintsSyscalls(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-app", "tpcc", "-requests", "4", "-limit", "1", "-seed", "1"}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "syscalls (6): read write write fsync write fsync") {
		t.Fatalf("syscall line missing or changed:\n%s", out.String())
	}
}
