package engine

import (
	"strings"
	"testing"

	"toc/internal/testutil"
)

func TestParseElasticSchedule(t *testing.T) {
	ev, err := ParseElasticSchedule(" 500:-2, 200:+4, 200:1 ,")
	if err != nil {
		t.Fatal(err)
	}
	want := []ElasticEvent{{200, 4}, {200, 1}, {500, -2}}
	if len(ev) != len(want) {
		t.Fatalf("parsed %d events, want %d", len(ev), len(want))
	}
	for i := range want {
		if ev[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v (sorted by step, input order on ties)", i, ev[i], want[i])
		}
	}
	if ev, err := ParseElasticSchedule("  "); err != nil || ev != nil {
		t.Errorf("blank spec = (%v, %v), want empty schedule", ev, err)
	}
}

// Every malformed schedule error must quote the offending token, so a
// typo in a long -elastic flag is findable.
func TestParseElasticScheduleErrorsNameBadToken(t *testing.T) {
	cases := []struct{ spec, tok string }{
		{"200", `"200"`},
		{"abc:+4", `"abc"`},
		{"200:four", `"four"`},
		{"-3:+4", `"-3"`},
		{"200:0", `"0"`},
		{"200:+4,500:", `""`},
	}
	for _, c := range cases {
		_, err := ParseElasticSchedule(c.spec)
		if err == nil {
			t.Errorf("spec %q: no error", c.spec)
			continue
		}
		if !strings.Contains(err.Error(), c.tok) {
			t.Errorf("spec %q: error %q does not name token %s", c.spec, err, c.tok)
		}
	}
}

// Membership calls against an idle engine are no-ops, not panics: there
// is no run to resize.
func TestMembershipNoOpWhenIdle(t *testing.T) {
	a := New(Config{Workers: 4, GroupSize: 1, Staleness: 2})
	if got := a.AddWorkers(3); got != 0 {
		t.Errorf("idle AddWorkers(3) = %d, want 0", got)
	}
	if got := a.RemoveWorkers(2); got != 0 {
		t.Errorf("idle RemoveWorkers(2) = %d, want 0", got)
	}
	if got := a.AddWorkers(-1); got != 0 {
		t.Errorf("AddWorkers(-1) = %d, want 0", got)
	}
	if got := a.LiveWorkers(); got != 4 {
		t.Errorf("idle LiveWorkers() = %d, want configured 4", got)
	}
}

// Mid-run, removals clamp to a floor of one worker and joins report the
// exact count spawned; the run's stats account every granted change.
func TestMembershipClampsMidRun(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	d, src := testSource(t, "census", 500)
	a := New(Config{Workers: 4, GroupSize: 1, Staleness: 3, Deterministic: true})
	var removed, added, liveAfter int
	a.SetOnStep(func(step int64, loss float64) {
		switch step {
		case 5:
			removed = a.RemoveWorkers(1000) // clamp: pool keeps >= 1
		case 15:
			added = a.AddWorkers(2)
		case 25:
			liveAfter = a.LiveWorkers()
		}
	})
	m := newSnapshotModel(t, "lr", d, 11)
	if _, err := a.Train(m, src, 3, 0.2, nil); err != nil {
		t.Fatal(err)
	}
	if removed != 3 {
		t.Errorf("RemoveWorkers(1000) on a pool of 4 granted %d, want 3", removed)
	}
	if added != 2 {
		t.Errorf("AddWorkers(2) = %d, want 2", added)
	}
	if liveAfter != 3 {
		t.Errorf("LiveWorkers() after -3/+2 = %d, want 3", liveAfter)
	}
	st := a.Stats()
	if st.Departed != 3 || st.Joined != 2 {
		t.Errorf("stats Departed=%d Joined=%d, want 3 and 2", st.Departed, st.Joined)
	}
	if got := a.LiveWorkers(); got != 4 {
		t.Errorf("LiveWorkers() between runs = %d, want configured 4", got)
	}
}
