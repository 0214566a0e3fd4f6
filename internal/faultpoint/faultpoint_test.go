package faultpoint

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// captureExit swaps the process-exit hook for a recorder, restoring it
// (and the registry) on cleanup.
func captureExit(t *testing.T) *[]int {
	t.Helper()
	old := exit
	var codes []int
	exit = func(code int) { codes = append(codes, code) }
	t.Cleanup(func() {
		exit = old
		Reset()
	})
	return &codes
}

func TestDisarmedHitIsNoop(t *testing.T) {
	Reset()
	Hit("nothing.armed.here") // must not panic, block, or exit
	if Armed("nothing.armed.here") {
		t.Fatal("unarmed point reported armed")
	}
}

func TestCrashFiresOnNthHit(t *testing.T) {
	codes := captureExit(t)
	arm("p", Crash, 3, 0)
	Hit("p")
	Hit("p")
	if len(*codes) != 0 {
		t.Fatalf("crash fired before the configured hit: %v", *codes)
	}
	Hit("p")
	if len(*codes) != 1 || (*codes)[0] != CrashExitCode {
		t.Fatalf("crash exit codes = %v, want [%d]", *codes, CrashExitCode)
	}
}

func TestDelayFires(t *testing.T) {
	defer Reset()
	arm("d", Delay, 1, 30*time.Millisecond)
	start := time.Now()
	Hit("d")
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("delay point slept only %v", elapsed)
	}
}

func TestResetDisarms(t *testing.T) {
	codes := captureExit(t)
	arm("p", Crash, 1, 0)
	Reset()
	Hit("p")
	if len(*codes) != 0 {
		t.Fatalf("hit after Reset fired: %v", *codes)
	}
}

func TestArmSpec(t *testing.T) {
	codes := captureExit(t)
	if err := ArmSpec("a=crash:2, b=delay:1ms, c=crash"); err != nil {
		t.Fatal(err)
	}
	if !Armed("a") || !Armed("b") || !Armed("c") {
		t.Fatal("spec did not arm all points")
	}
	Hit("c")
	if len(*codes) != 1 {
		t.Fatalf("c=crash did not fire on first hit: %v", *codes)
	}
	Hit("a")
	if len(*codes) != 1 {
		t.Fatal("a=crash:2 fired on first hit")
	}
	Hit("a")
	if len(*codes) != 2 {
		t.Fatal("a=crash:2 did not fire on second hit")
	}
}

func TestArmSpecEmptyAndErrors(t *testing.T) {
	defer Reset()
	if err := ArmSpec(""); err != nil {
		t.Fatalf("empty spec: %v", err)
	}
	for _, bad := range []string{"noequals", "=crash", "p=explode", "p=crash:x", "p=delay", "p=delay:zzz",
		"p=errorAfter", "p=errorAfter:x", "p=errorEvery", "p=errorEvery:nope", "p=errorEvery:2", "p=errorEvery:0.5:s"} {
		if err := ArmSpec(bad); err == nil {
			t.Errorf("spec %q: want error, got nil", bad)
		}
	}
}

func TestArmSpecErrorsNameBadToken(t *testing.T) {
	defer Reset()
	for _, tc := range []struct{ spec, token string }{
		{"p=crash:x", `"x"`},
		{"p=delay:zzz", `"zzz"`},
		{"p=errorAfter:x", `"x"`},
		{"p=errorEvery:nope", `"nope"`},
		{"p=errorEvery:0.5:s", `"s"`},
		{"p=crash:1:2", `"2"`},
	} {
		err := ArmSpec(tc.spec)
		if err == nil {
			t.Errorf("spec %q: want error, got nil", tc.spec)
			continue
		}
		if !strings.Contains(err.Error(), tc.token) {
			t.Errorf("spec %q: error %q does not name bad token %s", tc.spec, err, tc.token)
		}
	}
}

func TestErrorAfterFiresExactlyOnce(t *testing.T) {
	defer Reset()
	ArmError("e", 3)
	for i := 1; i <= 5; i++ {
		err := Err("e")
		if i == 3 {
			var fe *Error
			if !errors.As(err, &fe) {
				t.Fatalf("hit 3: got %v, want *Error", err)
			}
			if fe.Point != "e" || fe.Hit != 3 {
				t.Fatalf("fired error = %+v, want point e hit 3", fe)
			}
		} else if err != nil {
			t.Fatalf("hit %d: unexpected error %v", i, err)
		}
	}
	if got := HitCount("e"); got != 5 {
		t.Fatalf("HitCount = %d, want 5", got)
	}
}

func TestErrorEveryIsSeededAndDeterministic(t *testing.T) {
	defer Reset()
	fires := func(seed int64) []bool {
		ArmErrorEvery("e", 0.5, seed)
		out := make([]bool, 32)
		for i := range out {
			out[i] = Err("e") != nil
		}
		return out
	}
	a, b := fires(7), fires(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at hit %d", i)
		}
	}
	any := false
	for _, f := range a {
		any = any || f
	}
	if !any {
		t.Fatal("p=0.5 over 32 hits never fired")
	}
	// Permanent fault: p=1 fires on every hit.
	ArmErrorEvery("perm", 1, 1)
	for i := 0; i < 4; i++ {
		if Err("perm") == nil {
			t.Fatalf("p=1 hit %d did not fire", i+1)
		}
	}
	// p=0 never fires but still counts hits.
	ArmErrorEvery("never", 0, 1)
	for i := 0; i < 4; i++ {
		if Err("never") != nil {
			t.Fatal("p=0 fired")
		}
	}
	if got := HitCount("never"); got != 4 {
		t.Fatalf("HitCount(never) = %d, want 4", got)
	}
}

func TestHitDoesNotFireErrorModes(t *testing.T) {
	defer Reset()
	ArmError("e", 1)
	Hit("e") // consumes the firing hit without observing it
	if err := Err("e"); err != nil {
		t.Fatalf("errorAfter:1 fired on hit 2 after a plain Hit: %v", err)
	}
	if got := HitCount("e"); got != 2 {
		t.Fatalf("HitCount = %d, want 2", got)
	}
}

func TestErrHonorsCrashAndDelay(t *testing.T) {
	codes := captureExit(t)
	arm("c", Crash, 1, 0)
	if err := Err("c"); err != nil {
		t.Fatalf("crash point returned error %v from Err", err)
	}
	if len(*codes) != 1 || (*codes)[0] != CrashExitCode {
		t.Fatalf("Err at crash point exits = %v, want [%d]", *codes, CrashExitCode)
	}
	arm("d", Delay, 1, 30*time.Millisecond)
	start := time.Now()
	if err := Err("d"); err != nil {
		t.Fatalf("delay point returned error %v from Err", err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("Err at delay point slept only %v", elapsed)
	}
}

func TestHitCounts(t *testing.T) {
	defer Reset()
	if HitCount("a") != 0 {
		t.Fatal("disarmed HitCount should be 0")
	}
	ArmError("a", 100)
	ArmErrorEvery("b", 0, 1)
	Err("a")
	Err("a")
	Err("b")
	if a, b := HitCount("a"), HitCount("b"); a != 2 || b != 1 {
		t.Fatalf("HitCount = a:%d b:%d, want a:2 b:1", a, b)
	}
	if HitCount("missing") != 0 {
		t.Fatal("HitCount of unarmed point != 0")
	}
}

func TestArmSpecErrorModes(t *testing.T) {
	defer Reset()
	if err := ArmSpec("a=errorAfter:2, b=errorEvery:1, c=errorEvery:0.5:9"); err != nil {
		t.Fatal(err)
	}
	if !Armed("a") || !Armed("b") || !Armed("c") {
		t.Fatal("spec did not arm all points")
	}
	if err := Err("a"); err != nil {
		t.Fatalf("a hit 1: %v", err)
	}
	if err := Err("a"); err == nil {
		t.Fatal("a=errorAfter:2 did not fire on hit 2")
	}
	if err := Err("b"); err == nil {
		t.Fatal("b=errorEvery:1 did not fire")
	}
}
