package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

// These tests drive the built binary end to end: a SIGTERM mid-run must
// exit cleanly with a final checkpoint, and a -resume run must land on
// the bitwise-identical final parameters (compared via the printed
// params CRC). A delay faultpoint stretches every update so the signal
// reliably lands mid-training regardless of machine speed.

func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "toctrain")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

var crcRe = regexp.MustCompile(`final params crc32 ([0-9a-f]{8})`)

func paramsCRCOf(t *testing.T, out string) string {
	t.Helper()
	m := crcRe.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("output has no params CRC line:\n%s", out)
	}
	return m[1]
}

func runToctrain(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("toctrain %v: %v\n%s", args, err, out)
	}
	return string(out)
}

func TestSigtermHaltsWithCheckpointAndResumeMatches(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildBinary(t)
	args := []string{
		"-dataset", "census", "-rows", "1000", "-model", "lr",
		"-budget", "20000", "-workers", "2", "-group", "2", "-epochs", "4",
	}

	// Uninterrupted baseline with the same checkpointed configuration.
	base := runToctrain(t, bin, append(args, "-checkpoint-dir", t.TempDir())...)
	baseCRC := paramsCRCOf(t, base)

	// Slowed run, killed by SIGTERM mid-training.
	dir := t.TempDir()
	cmd := exec.Command(bin, append(args,
		"-checkpoint-dir", dir, "-faultpoint", "engine.local.applied=delay:200ms")...)
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, &buf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(500 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("signalled run did not exit cleanly: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "halted: final checkpoint") {
		t.Fatalf("signalled run did not report a final checkpoint:\n%s", buf.String())
	}

	// Resume must finish the run on the exact baseline trajectory.
	resumed := runToctrain(t, bin, append(args, "-checkpoint-dir", dir, "-resume")...)
	if !strings.Contains(resumed, "resuming from checkpoint") {
		t.Fatalf("resume run did not pick up the checkpoint:\n%s", resumed)
	}
	if !strings.Contains(resumed, "recovered spill store") {
		t.Fatalf("resume run did not recover the store from its manifest:\n%s", resumed)
	}
	if got := paramsCRCOf(t, resumed); got != baseCRC {
		t.Fatalf("resumed params CRC %s, baseline %s (not bitwise identical)", got, baseCRC)
	}
}

func TestCrashFaultpointThenResumeMatches(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildBinary(t)
	args := []string{
		"-dataset", "census", "-rows", "1000", "-model", "lr",
		"-budget", "20000", "-workers", "2", "-group", "2", "-epochs", "4",
	}
	base := runToctrain(t, bin, append(args, "-checkpoint-dir", t.TempDir())...)
	baseCRC := paramsCRCOf(t, base)

	dir := t.TempDir()
	out, err := exec.Command(bin, append(args,
		"-checkpoint-dir", dir, "-faultpoint", "checkpoint.rename=crash:2")...).CombinedOutput()
	if err == nil {
		t.Fatalf("armed crash faultpoint did not kill the run:\n%s", out)
	}
	var ee *exec.ExitError
	if !asExitError(err, &ee) || ee.ExitCode() != 7 {
		t.Fatalf("crash run exited %v, want crash code 7\n%s", err, out)
	}

	resumed := runToctrain(t, bin, append(args, "-checkpoint-dir", dir, "-resume")...)
	if got := paramsCRCOf(t, resumed); got != baseCRC {
		t.Fatalf("resumed params CRC %s, baseline %s (not bitwise identical)", got, baseCRC)
	}
}

// A single dense trainer behind the parameter server must walk the
// exact trajectory of the local engine: same final params CRC as
// "-workers 1" at the same staleness bound.
func TestDistSingleDenseMatchesAsyncCRC(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildBinary(t)
	args := []string{
		"-dataset", "mnist", "-rows", "400", "-model", "lr",
		"-epochs", "3", "-seed", "11", "-staleness", "0",
	}
	local := runToctrain(t, bin, append(args, "-workers", "1")...)
	dist := runToctrain(t, bin, append(args, "-dist", "1")...)
	lc, dc := paramsCRCOf(t, local), paramsCRCOf(t, dist)
	if lc != dc {
		t.Fatalf("dist dense CRC %s, local CRC %s (not bitwise identical)", dc, lc)
	}
	if !strings.Contains(dist, "0 rejected") {
		t.Fatalf("single dense trainer saw rejections:\n%s", dist)
	}
}

// A -workers 1 run steps the way every engine does — one Grad, one
// ApplyGrad — so multi-class LR (one-vs-rest, 10 per-class gradients on
// mnist) builds each batch's decode tree once per step, not once per
// class, and lands on the parameters of the engine at group 1. Turning on
// checkpointing must not change the schedule: the checkpointed serial run
// lands on the same parameters.
func TestSerialOneVsRestBuildsOneTreePerStep(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildBinary(t)
	args := []string{"-dataset", "mnist", "-rows", "1000", "-batch", "250", "-model", "lr", "-method", "TOC", "-epochs", "2"}
	serial := runToctrain(t, bin, args...)
	// 2 epochs × 4 batches.
	if want := "decode-tree builds during training: 8 ("; !strings.Contains(serial, want) {
		t.Fatalf("serial run does not print %q:\n%s", want, serial)
	}
	sc := paramsCRCOf(t, serial)
	engine := runToctrain(t, bin, append(args, "-workers", "2", "-group", "1")...)
	if ec := paramsCRCOf(t, engine); sc != ec {
		t.Fatalf("serial CRC %s, engine group-1 CRC %s (not bitwise identical)", sc, ec)
	}
	ckpt := runToctrain(t, bin, append(args, "-checkpoint-dir", t.TempDir())...)
	if cc := paramsCRCOf(t, ckpt); sc != cc {
		t.Fatalf("serial CRC %s, checkpointed serial CRC %s (checkpointing changed the schedule)", sc, cc)
	}
}

// A trainer killed mid-run by a faultpoint must not sink the run: the
// server requeues its positions and the survivor finishes the schedule.
// The printed counters are what the CI dist job grep-gates.
func TestDistTrainerCrashRunCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildBinary(t)
	out := runToctrain(t, bin,
		"-dataset", "mnist", "-rows", "400", "-model", "lr",
		"-epochs", "3", "-seed", "11", "-staleness", "2",
		"-dist", "2", "-codec", "topk:0.05",
		"-faultpoint", "dist.trainer.compute=errorAfter:4")
	for _, want := range []string{
		"1 trainers crashed",
		"1 disconnects",
		"positions reassigned, run completed",
		"final params crc32",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("crash run output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "0 positions reassigned") {
		t.Fatalf("crash at an assigned position must reassign it:\n%s", out)
	}
}

// Every refused flag combination fails at flag validation, before any
// data is generated, with the message that names the rule: a negative
// simulated-hardware rating is a typo, not "off", and a flag that only
// one kind of run reads is refused on the other.
func TestNegativeBandwidthLatencyAndLinkRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildBinary(t)
	for _, row := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-bw", "-1"}, "must not be negative"},
		{[]string{"-seek", "-2ms"}, "must not be negative"},
		{[]string{"-dist", "2", "-link-mbps", "-200"}, "must not be negative"},
		{[]string{"-resume"}, "-resume needs -checkpoint-dir"},
		{[]string{"-codec", "topk:0.01"}, "-codec and -link-mbps need -dist"},
		{[]string{"-link-mbps", "100"}, "-codec and -link-mbps need -dist"},
		{[]string{"-dist", "2", "-elastic", "5:+1"}, "-elastic needs a local run"},
		{[]string{"-dist", "2", "-restart-budget", "3"}, "-restart-budget and -restart-window need a local run"},
		{[]string{"-dist", "2", "-restart-window", "1s"}, "-restart-budget and -restart-window need a local run"},
	} {
		out, err := exec.Command(bin, row.args...).CombinedOutput()
		if err == nil || !strings.Contains(string(out), row.msg) {
			t.Errorf("toctrain %v = %v, want a flag-validation failure naming %q:\n%s", row.args, err, row.msg, out)
		}
	}
}

func asExitError(err error, target **exec.ExitError) bool {
	ee, ok := err.(*exec.ExitError)
	if ok {
		*target = ee
	}
	return ok
}
