package dist

import (
	"errors"
	"math"
	"net"
	"net/rpc"
	"strings"
	"sync"
	"testing"
	"time"

	"toc/internal/checkpoint"
	"toc/internal/data"
	"toc/internal/engine"
	"toc/internal/faultpoint"
	"toc/internal/formats"
	"toc/internal/ml"
	"toc/internal/pace"
	"toc/internal/storage"
)

func testSource(t testing.TB, name string, rows int) (*data.Dataset, *ml.MemorySource) {
	t.Helper()
	d, err := data.Generate(name, rows, 1)
	if err != nil {
		t.Fatal(err)
	}
	d.ShuffleOnce(2)
	return d, ml.NewMemorySource(d, 50, formats.MustGet("TOC"))
}

func newSnapshotModel(t testing.TB, name string, d *data.Dataset, seed int64) ml.Model {
	t.Helper()
	m, err := ml.NewModel(name, d.X.Cols(), d.Classes, 0.1, seed)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func paramsOf(m ml.SnapshotModel) []float64 {
	out := make([]float64, m.NumParams())
	m.Params(out)
	return out
}

func maxAbsDiff(a, b []float64) float64 {
	max := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > max {
			max = d
		}
	}
	return max
}

// runCluster wires n trainers to srv over in-process pipes, runs the
// schedule to completion, and returns the result, the server error, the
// per-trainer Run errors, and the trainers.
func runCluster(t *testing.T, srv *Server, n int, mk func(i int) (ml.SnapshotModel, ml.BatchSource, TrainerConfig)) (*ml.TrainResult, error, []error, []*Trainer) {
	t.Helper()
	trainers := make([]*Trainer, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		m, src, cfg := mk(i)
		client, server := net.Pipe()
		go srv.ServeConn(server)
		trainers[i] = NewTrainer(client, m, src, cfg)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = trainers[i].Run()
		}(i)
	}
	res, err := srv.Wait()
	wg.Wait()
	return res, err, errs, trainers
}

// trainToEnd runs srv's remaining schedule with one honest dense trainer
// on an lr model of seed 3.
func trainToEnd(t *testing.T, srv *Server, d *data.Dataset, src ml.BatchSource) {
	t.Helper()
	_, werr, errs, _ := runCluster(t, srv, 1, func(int) (ml.SnapshotModel, ml.BatchSource, TrainerConfig) {
		return newSnapshotModel(t, "lr", d, 3), src, TrainerConfig{}
	})
	if werr != nil || errs[0] != nil {
		t.Fatalf("run did not complete: server %v, trainer %v", werr, errs[0])
	}
}

// The tentpole identity contract: one trainer, dense codec, staleness 0
// walks the local engine's serial trajectory bitwise — parameters,
// per-step loss log, and epoch losses.
func TestSingleTrainerDenseMatchesAsyncBitwise(t *testing.T) {
	d, src := testSource(t, "mnist", 400)

	var asyncSteps []float64
	a := engine.New(engine.Config{
		Workers: 1, GroupSize: 1, Staleness: 0, Seed: 11,
		OnStep: func(step int64, loss float64) { asyncSteps = append(asyncSteps, loss) },
	})
	am := newSnapshotModel(t, "lr", d, 13)
	resA, err := a.Train(am, src, 3, 0.2, nil)
	if err != nil {
		t.Fatal(err)
	}

	var distSteps []float64
	sm := newSnapshotModel(t, "lr", d, 13)
	srv, err := NewServer(ServerConfig{
		Epochs: 3, NumBatches: src.NumBatches(), LR: 0.2,
		Seed: 11, Staleness: 0,
		OnStep: func(step int64, loss float64) { distSteps = append(distSteps, loss) },
	}, sm)
	if err != nil {
		t.Fatal(err)
	}
	resD, werr, errs, _ := runCluster(t, srv, 1, func(int) (ml.SnapshotModel, ml.BatchSource, TrainerConfig) {
		return newSnapshotModel(t, "lr", d, 13), src, TrainerConfig{}
	})
	if werr != nil {
		t.Fatal(werr)
	}
	for i, e := range errs {
		if e != nil {
			t.Fatalf("trainer %d: %v", i, e)
		}
	}
	if diff := maxAbsDiff(paramsOf(am), paramsOf(sm)); diff != 0 {
		t.Errorf("params diverge from async by %g (want bitwise identity)", diff)
	}
	if len(distSteps) != len(asyncSteps) {
		t.Fatalf("%d dist steps, async logged %d", len(distSteps), len(asyncSteps))
	}
	for i := range asyncSteps {
		if math.Float64bits(distSteps[i]) != math.Float64bits(asyncSteps[i]) {
			t.Fatalf("step %d loss %v != async %v (want bitwise identity)",
				i, distSteps[i], asyncSteps[i])
		}
	}
	for e := range resA.EpochLoss {
		if math.Float64bits(resA.EpochLoss[e]) != math.Float64bits(resD.EpochLoss[e]) {
			t.Errorf("epoch %d loss %v != async %v (want bitwise identity)",
				e, resD.EpochLoss[e], resA.EpochLoss[e])
		}
	}
	st := srv.Stats()
	if want := int64(3 * src.NumBatches()); st.Updates != want {
		t.Errorf("%d updates, want %d", st.Updates, want)
	}
	if st.MaxStaleness != 0 {
		t.Errorf("max staleness %d under bound 0", st.MaxStaleness)
	}
	if st.Rejected != 0 {
		t.Errorf("%d rejections with slack 0 (pull policy guarantees admission)", st.Rejected)
	}
}

// Multiple trainers under a bounded staleness window: every position
// applies exactly once, no admitted gradient exceeds the bound, and the
// run converges.
func TestMultiTrainerBoundedStaleness(t *testing.T) {
	const bound = 3
	d, src := testSource(t, "census", 500)
	sm := newSnapshotModel(t, "lr", d, 3)
	srv, err := NewServer(ServerConfig{
		Epochs: 3, NumBatches: src.NumBatches(), LR: 0.2, Staleness: bound,
	}, sm)
	if err != nil {
		t.Fatal(err)
	}
	res, werr, errs, _ := runCluster(t, srv, 4, func(int) (ml.SnapshotModel, ml.BatchSource, TrainerConfig) {
		return newSnapshotModel(t, "lr", d, 3), src, TrainerConfig{}
	})
	if werr != nil {
		t.Fatal(werr)
	}
	for i, e := range errs {
		if e != nil {
			t.Fatalf("trainer %d: %v", i, e)
		}
	}
	st := srv.Stats()
	if want := int64(3 * src.NumBatches()); st.Updates != want {
		t.Errorf("%d updates, want %d", st.Updates, want)
	}
	if st.MaxStaleness > bound {
		t.Errorf("max staleness %d exceeds bound %d", st.MaxStaleness, bound)
	}
	if st.Joined != 4 || st.Left != 4 || st.Disconnects != 0 {
		t.Errorf("membership joined=%d left=%d disconnects=%d, want 4/4/0", st.Joined, st.Left, st.Disconnects)
	}
	if len(res.EpochLoss) != 3 || !(res.EpochLoss[2] < res.EpochLoss[0]) {
		t.Errorf("epoch losses %v do not decrease", res.EpochLoss)
	}
}

// A push outside the staleness bound is refused with an RPC error and
// moves nothing: a raw peer at bound 0 pushes position 1 computed at
// version 0, the clock stays put, and once the peer drops its connection
// the position is requeued, as for any crashed trainer. An honest trainer
// then finishes on the trajectory of a run no stale push touched.
func TestStalePushIsRefused(t *testing.T) {
	d, src := testSource(t, "census", 200)
	n := src.NumBatches()
	cfg := ServerConfig{Epochs: 2, NumBatches: n, LR: 0.2}
	clean := newSnapshotModel(t, "lr", d, 3)
	srv, err := NewServer(cfg, clean)
	if err != nil {
		t.Fatal(err)
	}
	trainToEnd(t, srv, d, src)

	stale := newSnapshotModel(t, "lr", d, 3)
	if srv, err = NewServer(cfg, stale); err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	served := make(chan struct{}) // closed once the session has requeued what it held
	go func() {
		srv.ServeConn(server)
		close(served)
	}()
	peer := rpc.NewClient(client)
	if err := peer.Call("PS.Join", &JoinArgs{Codec: "dense", NumParams: stale.NumParams(), NumBatches: n}, &JoinReply{}); err != nil {
		t.Fatal(err)
	}
	// The peer computes every gradient at version 0, the join image.
	m := newSnapshotModel(t, "lr", d, 3)
	grad := make([]float64, m.NumParams())
	push := func(pos int64) error {
		t.Helper()
		var nr NextReply
		if err := peer.Call("PS.Next", &NextArgs{}, &nr); err != nil || nr.Done || nr.Pos != pos {
			t.Fatalf("Next = %+v, %v; want position %d", nr, err, pos)
		}
		x, y := src.Batch(nr.Batch)
		loss := m.Grad(x, y, grad)
		return peer.Call("PS.Push", &PushArgs{Pos: pos, Version: 0, Loss: loss, Payload: (&Dense{}).EncodeGrad(grad, nil)}, &PushReply{})
	}
	if err := push(0); err != nil {
		t.Fatalf("position 0 at version 0: %v", err)
	}
	if err := push(1); err == nil {
		t.Fatal("position 1 at version 0 admitted under staleness 0")
	}
	if got := srv.Stats().Updates; got != 1 {
		t.Fatalf("%d updates after the refused push, want 1", got)
	}
	peer.Close()
	<-served

	trainToEnd(t, srv, d, src)
	if diff := maxAbsDiff(paramsOf(clean), paramsOf(stale)); diff != 0 {
		t.Errorf("params diverge from the clean run's by %g", diff)
	}
	st := srv.Stats()
	if want := int64(2 * n); st.Updates != want || st.Rejected != 1 || st.Reassigned != 1 {
		t.Errorf("%d updates, %d rejected, %d reassigned; want %d, 1 and 1", st.Updates, st.Rejected, st.Reassigned, want)
	}
}

// A trainer that dies mid-run (injected) must not sink the run: the
// server requeues its in-flight position and the surviving trainer
// finishes the whole schedule.
func TestTrainerCrashReassignment(t *testing.T) {
	defer faultpoint.Reset()
	faultpoint.ArmError("dist.trainer.compute", 5)
	d, src := testSource(t, "census", 400)
	sm := newSnapshotModel(t, "lr", d, 3)
	srv, err := NewServer(ServerConfig{
		Epochs: 2, NumBatches: src.NumBatches(), LR: 0.2, Staleness: 4,
	}, sm)
	if err != nil {
		t.Fatal(err)
	}
	_, werr, errs, _ := runCluster(t, srv, 2, func(int) (ml.SnapshotModel, ml.BatchSource, TrainerConfig) {
		return newSnapshotModel(t, "lr", d, 3), src, TrainerConfig{}
	})
	if werr != nil {
		t.Fatal(werr)
	}
	crashed := 0
	for _, e := range errs {
		if e != nil {
			var ferr *faultpoint.Error
			if !errors.As(e, &ferr) {
				t.Fatalf("trainer error %v is not the injected fault", e)
			}
			crashed++
		}
	}
	if crashed != 1 {
		t.Fatalf("%d trainers crashed, armed exactly one", crashed)
	}
	st := srv.Stats()
	if want := int64(2 * src.NumBatches()); st.Updates != want {
		t.Errorf("%d updates after crash, want %d", st.Updates, want)
	}
	if st.Disconnects != 1 {
		t.Errorf("%d disconnects, want 1", st.Disconnects)
	}
	if st.Reassigned == 0 {
		t.Error("crash left no reassigned positions; the injection point sits after assignment")
	}
}

// The Join handshake rejects a codec mismatch instead of silently
// decoding one codec's payloads with another.
func TestJoinRejectsCodecMismatch(t *testing.T) {
	d, src := testSource(t, "census", 200)
	sm := newSnapshotModel(t, "lr", d, 3)
	codec, err := ParseCodec("topk:0.05", 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Epochs: 1, NumBatches: src.NumBatches(), LR: 0.2, Codec: codec,
	}, sm)
	if err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	go srv.ServeConn(server)
	tr := NewTrainer(client, newSnapshotModel(t, "lr", d, 3), src, TrainerConfig{})
	if err := tr.Run(); err == nil {
		t.Fatal("dense trainer joined a topk server")
	}
	srv.Halt()
	if _, err := srv.Wait(); !errors.Is(err, engine.ErrHalted) {
		t.Fatalf("Wait after halt: %v, want ErrHalted", err)
	}
}

// Checkpoint/resume: a dense staleness-0 run interrupted mid-schedule
// and resumed from its latest checkpoint finishes with bitwise the same
// parameters as an uninterrupted run.
func TestCheckpointResumeBitwise(t *testing.T) {
	d, src := testSource(t, "mnist", 300)
	n := src.NumBatches()
	runOne := func(srv *Server) error {
		t.Helper()
		_, werr, errs, _ := runCluster(t, srv, 1, func(int) (ml.SnapshotModel, ml.BatchSource, TrainerConfig) {
			return newSnapshotModel(t, "lr", d, 13), src, TrainerConfig{}
		})
		for i, e := range errs {
			if e != nil {
				t.Fatalf("trainer %d: %v", i, e)
			}
		}
		return werr
	}

	full := newSnapshotModel(t, "lr", d, 13)
	srv, err := NewServer(ServerConfig{Epochs: 3, NumBatches: n, LR: 0.2, Staleness: 0}, full)
	if err != nil {
		t.Fatal(err)
	}
	if werr := runOne(srv); werr != nil {
		t.Fatal(werr)
	}

	dir := t.TempDir()
	ck, err := checkpoint.NewWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	interrupted := newSnapshotModel(t, "lr", d, 13)
	var srv2 *Server
	halt := make(chan struct{})
	var once sync.Once
	srv2, err = NewServer(ServerConfig{
		Epochs: 3, NumBatches: n, LR: 0.2, Staleness: 0,
		Checkpoint: ck, CheckpointEvery: 5,
		OnStep: func(step int64, loss float64) {
			if step >= int64(3*n)/2 {
				once.Do(func() { close(halt) })
			}
		},
	}, interrupted)
	if err != nil {
		t.Fatal(err)
	}
	go func() { <-halt; srv2.Halt() }()
	// Halt races the (fast, in-process) schedule: the run may drain fully
	// before it lands. Either way the final synchronous checkpoint is the
	// resume point, so both outcomes exercise the path under test.
	if werr := runOne(srv2); werr != nil && !errors.Is(werr, engine.ErrHalted) {
		t.Fatal(werr)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := checkpoint.Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != checkpoint.KindDist {
		t.Fatalf("checkpoint kind %v, want dist", st.Kind)
	}
	resumed := newSnapshotModel(t, "lr", d, 13)
	srv3, err := NewServer(ServerConfig{
		Epochs: 3, NumBatches: n, LR: 0.2, Staleness: 0, Resume: st,
	}, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if werr := runOne(srv3); werr != nil {
		t.Fatal(werr)
	}
	if diff := maxAbsDiff(paramsOf(full), paramsOf(resumed)); diff != 0 {
		t.Errorf("resumed params diverge by %g (want bitwise identity)", diff)
	}
}

// The RPC surface is a trust boundary: a peer that skips Join, or pushes
// a position it was never assigned (another trainer's, one not released
// yet, one past the schedule) or a version from the future, gets an RPC
// error, moves nothing — and the run still completes on the trajectory of
// a run no hostile peer touched.
func TestHostilePeerCannotMoveTheRun(t *testing.T) {
	d, src := testSource(t, "census", 200)
	n := src.NumBatches()
	cfg := ServerConfig{Epochs: 2, NumBatches: n, LR: 0.2}
	clean := newSnapshotModel(t, "lr", d, 3)
	srv, err := NewServer(cfg, clean)
	if err != nil {
		t.Fatal(err)
	}
	trainToEnd(t, srv, d, src)

	attacked := newSnapshotModel(t, "lr", d, 3)
	if srv, err = NewServer(cfg, attacked); err != nil {
		t.Fatal(err)
	}
	dial := func() *rpc.Client {
		client, server := net.Pipe()
		go srv.ServeConn(server)
		return rpc.NewClient(client)
	}
	join := func(c *rpc.Client) {
		t.Helper()
		var jr JoinReply
		if err := c.Call("PS.Join", &JoinArgs{Codec: "dense", NumParams: attacked.NumParams(), NumBatches: n}, &jr); err != nil {
			t.Fatal(err)
		}
	}
	poison := make([]float64, attacked.NumParams())
	for i := range poison {
		poison[i] = 1e6
	}
	payload := (&Dense{}).EncodeGrad(poison, nil)
	push := func(pos, version int64) func(c *rpc.Client) error {
		return func(c *rpc.Client) error {
			return c.Call("PS.Push", &PushArgs{Pos: pos, Version: version, Payload: payload}, &PushReply{})
		}
	}

	// victim is an honest peer holding position 0 while the others attack.
	victim := dial()
	join(victim)
	var held NextReply
	if err := victim.Call("PS.Next", &NextArgs{}, &held); err != nil || held.Done || held.Pos != 0 {
		t.Fatalf("victim Next = %+v, %v; want position 0", held, err)
	}
	rows := []struct {
		name   string
		joined bool
		call   func(c *rpc.Client) error
	}{
		{"Next before Join", false, func(c *rpc.Client) error { return c.Call("PS.Next", &NextArgs{}, &NextReply{}) }},
		{"Push before Join", false, push(0, 0)},
		{"Bye before Join", false, func(c *rpc.Client) error { return c.Call("PS.Bye", &ByeArgs{}, &ByeReply{}) }},
		{"push another trainer's position", true, push(0, 0)},
		{"push a position not released yet", true, push(3, 0)},
		{"push a position past the schedule", true, push(int64(2*n), 0)},
		{"push a negative position", true, push(-1, 0)},
	}
	for _, row := range rows {
		c := dial()
		if row.joined {
			join(c)
		}
		if err := row.call(c); err == nil {
			t.Errorf("%s: accepted", row.name)
		}
		if got := srv.Stats().Updates; got != 0 {
			t.Errorf("%s: %d updates applied", row.name, got)
		}
		c.Close()
	}
	// A version from the future, for a position the peer does hold.
	if err := victim.Call("PS.Push", &PushArgs{Pos: 0, Version: 5, Payload: payload}, &PushReply{}); err == nil {
		t.Error("push computed at a future version: accepted")
	}
	victim.Close() // vanishes holding position 0: requeued for the honest trainer

	trainToEnd(t, srv, d, src)
	if diff := maxAbsDiff(paramsOf(clean), paramsOf(attacked)); diff != 0 {
		t.Errorf("attacked run's params diverge from the clean run's by %g", diff)
	}
	st := srv.Stats()
	if want := int64(2 * n); st.Updates != want || st.Duplicates != 0 {
		t.Errorf("%d updates, %d duplicates; want %d and 0", st.Updates, st.Duplicates, want)
	}
	if st.Reassigned != 1 {
		t.Errorf("%d positions reassigned, want the victim's 1", st.Reassigned)
	}
}

// A payload that fails to decode fails the run, and the error names the
// trainer id the session joined as, not the id the peer claims.
func TestUndecodablePushNamesTheJoinedTrainer(t *testing.T) {
	d, src := testSource(t, "census", 200)
	sm := newSnapshotModel(t, "lr", d, 3)
	srv, err := NewServer(ServerConfig{Epochs: 1, NumBatches: src.NumBatches(), LR: 0.2}, sm)
	if err != nil {
		t.Fatal(err)
	}
	var jr JoinReply
	for range 2 { // the second peer joins as trainer 1
		client, server := net.Pipe()
		go srv.ServeConn(server)
		c := rpc.NewClient(client)
		defer c.Close()
		if err := c.Call("PS.Join", &JoinArgs{Codec: "dense", NumParams: sm.NumParams(), NumBatches: src.NumBatches()}, &jr); err != nil {
			t.Fatal(err)
		}
		if jr.Trainer != 1 {
			continue
		}
		payload := (&Dense{}).EncodeGrad(make([]float64, sm.NumParams()), nil)
		if err := c.Call("PS.Push", &PushArgs{Trainer: 99, Payload: payload[:len(payload)-3]}, &PushReply{}); err == nil {
			t.Fatal("truncated payload accepted")
		}
	}
	_, err = srv.Wait()
	if err == nil || !strings.Contains(err.Error(), "push from trainer 1:") {
		t.Fatalf("Wait: %v, want the error to name trainer 1", err)
	}
}

// Resume validation refuses configuration drift. The table of mismatches
// is engine.TestLoopResumeRefusesEveryMismatch; this is the
// through-the-server case.
func TestResumeValidation(t *testing.T) {
	good := &checkpoint.State{
		Kind: checkpoint.KindDist, Seed: 1, LR: 0.2, Staleness: 2,
		NumBatches: 8, Clock: 8, Epoch: 1,
		EpochLoss: []float64{0.5}, Params: make([]float64, 4),
	}
	base := ServerConfig{Epochs: 3, NumBatches: 8, LR: 0.2, Seed: 1, Staleness: 2}
	if _, err := NewServer(withResume(base, good), &stubModel{np: 4}); err != nil {
		t.Fatalf("valid resume rejected: %v", err)
	}
	local := *good
	local.Kind = checkpoint.KindLocal
	if _, err := NewServer(withResume(base, &local), &stubModel{np: 4}); err == nil {
		t.Error("server resumed a local-engine checkpoint")
	}
	base.Staleness = 5
	if _, err := NewServer(withResume(base, good), &stubModel{np: 4}); err == nil {
		t.Error("server resumed a checkpoint taken under another staleness bound")
	}
}

func withResume(cfg ServerConfig, st *checkpoint.State) ServerConfig {
	cfg.Resume = st
	return cfg
}

// stubModel is a minimal SnapshotModel for validation-only tests.
type stubModel struct {
	np     int
	params []float64
}

func (m *stubModel) NumParams() int        { return m.np }
func (m *stubModel) Params(out []float64)  { copy(out, m.params) }
func (m *stubModel) SetParams(p []float64) { m.params = append(m.params[:0], p...) }
func (m *stubModel) Clone() ml.Model {
	return &stubModel{np: m.np, params: append([]float64(nil), m.params...)}
}
func (m *stubModel) Grad(x formats.CompressedMatrix, y []float64, out []float64) float64 {
	for i := range out {
		out[i] = 0
	}
	return 0
}
func (m *stubModel) ApplyGrad(g []float64, lr float64)                    {}
func (m *stubModel) SetKernelWorkers(int)                                 {}
func (m *stubModel) Loss(x formats.CompressedMatrix, y []float64) float64 { return 0 }
func (m *stubModel) Predict(x formats.CompressedMatrix) []float64         { return nil }

// The codecs' two claims, gated together so neither can be bought with
// the other. Bytes: dense ships its own image, dsq:4 and topk:0.01 a few
// percent of it (wire ratio = payload bytes over what dense would have
// shipped for the same messages; a real run over net.Pipe, byte counts
// only). Loss: top-k at 1% density still converges close to dense —
// error-feedback coverage scales with steps×ratio, so the schedule must
// be long enough for the residual tail to deliver: at 1280 steps the gap
// is ~0.3%; at 160 it would still be ~20%.
//
// And what the saved bytes buy: an update costs max(compute, bytes ÷
// bandwidth). Replaying each codec's measured per-update traffic through
// a 25 Mbit/s Link in virtual time, dense is wire-bound and both
// compressed codecs finish the schedule well ahead of it.
func TestTopKConvergenceAndWireRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a long schedule for error feedback to drain")
	}
	const trainers = 2
	d, src := testSource(t, "mnist", 4000)
	run := func(spec string) (float64, ServerStats) {
		codec, err := ParseCodec(spec, 7)
		if err != nil {
			t.Fatal(err)
		}
		sm := newSnapshotModel(t, "lr", d, 13)
		srv, err := NewServer(ServerConfig{
			Epochs: 16, NumBatches: src.NumBatches(), LR: 0.2, Staleness: 2, Codec: codec,
		}, sm)
		if err != nil {
			t.Fatal(err)
		}
		res, werr, errs, _ := runCluster(t, srv, trainers, func(int) (ml.SnapshotModel, ml.BatchSource, TrainerConfig) {
			return newSnapshotModel(t, "lr", d, 13), src, TrainerConfig{Codec: codec.Clone()}
		})
		if werr != nil {
			t.Fatal(werr)
		}
		for i, e := range errs {
			if e != nil {
				t.Fatalf("trainer %d: %v", i, e)
			}
		}
		return res.EpochLoss[len(res.EpochLoss)-1], srv.Stats()
	}
	denseLoss, dense := run("dense")
	if ratio := dense.WireRatio(); ratio < 0.99 || ratio > 1.01 {
		t.Errorf("dense wire ratio %.4f, want its own byte count (0.99-1.01)", ratio)
	}
	// 25 Mbit/s against 2 ms of compute per gradient: the slow-link cell
	// of the sweep this test replaces.
	const compute = 2 * time.Millisecond
	denseTime := replayOnLink(dense, trainers, compute, NewLinkMbps(25))
	if wire := pace.Transfer(dense.UpBytes, 25e6/8); denseTime < wire || wire < time.Duration(dense.Updates)*compute {
		t.Errorf("dense at 25 Mbit/s takes %v for %v of uplink traffic: want it wire-bound", denseTime, wire)
	}
	for _, c := range []struct {
		spec      string
		maxRatio  float64 // the last committed measurement + 5%
		lossDelta float64 // 0 = not gated
	}{
		{spec: "topk:0.01", maxRatio: 0.0154 * 1.05, lossDelta: 0.02},
		{spec: "dsq:4", maxRatio: 0.0652 * 1.05},
	} {
		loss, st := run(c.spec)
		if ratio := st.WireRatio(); ratio > c.maxRatio {
			t.Errorf("%s wire ratio %.4f, want <= %.4f of dense bytes", c.spec, ratio, c.maxRatio)
		}
		if delta := math.Abs(loss-denseLoss) / denseLoss; c.lossDelta > 0 && delta > c.lossDelta {
			t.Errorf("%s final loss %.6f vs dense %.6f: delta %.2f%% exceeds %.0f%%", c.spec, loss, denseLoss, 100*delta, 100*c.lossDelta)
		}
		if got := replayOnLink(st, trainers, compute, NewLinkMbps(25)); 13*got > 10*denseTime {
			t.Errorf("%s at 25 Mbit/s takes %v, dense %v: want the compressed codec >= 1.3x sooner", c.spec, got, denseTime)
		}
	}
}

// replayOnLink walks a finished run's schedule in virtual time: each of
// the trainers loops compute → push → pull, every update moving the
// run's measured mean bytes per direction through link, until all of
// st.Updates are done. Events are taken in time order, so the link sees
// its requests as a real run would issue them. It returns the makespan.
func replayOnLink(st ServerStats, trainers int, compute time.Duration, link *Link) time.Duration {
	up, down := int(st.UpBytes/st.Updates), int(st.DownBytes/st.Updates)
	at, phase := make([]time.Time, trainers), make([]int, trainers)
	for i := range at {
		at[i] = t0
	}
	end := t0
	for left := st.Updates; left > 0; {
		r := 0
		for i := range at {
			if at[i].Before(at[r]) {
				r = i
			}
		}
		switch phase[r] {
		case 0:
			at[r] = at[r].Add(compute)
		case 1:
			at[r] = link.Up(at[r], up)
		case 2:
			at[r] = link.Down(at[r], down)
			left--
			end = at[r]
		}
		phase[r] = (phase[r] + 1) % 3
	}
	return end.Sub(t0)
}

// Two trainers at staleness 0 sharing one prefetcher over a fully
// spilled store walk the serial in-RAM trajectory bit for bit, though
// every batch they read is recycled once its gradient has returned. Under
// the race detector a recycled batch is poisoned, so a trainer that used
// one after its release would break the identity.
func TestTrainersOverSpilledStoreMatchSerialBitwise(t *testing.T) {
	d, mem := testSource(t, "census", 500)
	want := newSnapshotModel(t, "lr", d, 3)
	wantRes := ml.Train(want, mem, 3, 0.2, nil)

	st, err := storage.NewStore(t.TempDir(), "TOC", 1, storage.WithShards(2)) // all spilled
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := engine.New(engine.Config{Workers: 2}).FillStore(st, d, 50); err != nil {
		t.Fatal(err)
	}
	pf := storage.NewPrefetcher(st, 4, 2, 0)
	defer pf.Close()
	sm := newSnapshotModel(t, "lr", d, 3)
	srv, err := NewServer(ServerConfig{Epochs: 3, NumBatches: pf.NumBatches(), LR: 0.2}, sm)
	if err != nil {
		t.Fatal(err)
	}
	res, werr, errs, _ := runCluster(t, srv, 2, func(int) (ml.SnapshotModel, ml.BatchSource, TrainerConfig) {
		return newSnapshotModel(t, "lr", d, 3), pf, TrainerConfig{}
	})
	if werr != nil {
		t.Fatal(werr)
	}
	for i, e := range errs {
		if e != nil {
			t.Fatalf("trainer %d: %v", i, e)
		}
	}
	if ps := pf.Stats(); ps.Hits == 0 {
		t.Errorf("the prefetcher never hit: %+v", ps)
	}
	for e := range wantRes.EpochLoss {
		if math.Float64bits(res.EpochLoss[e]) != math.Float64bits(wantRes.EpochLoss[e]) {
			t.Errorf("epoch %d loss %v, serial %v", e, res.EpochLoss[e], wantRes.EpochLoss[e])
		}
	}
	got, wp := paramsOf(sm), paramsOf(want)
	for i := range wp {
		if math.Float64bits(got[i]) != math.Float64bits(wp[i]) {
			t.Fatalf("parameter %d is %v, serial %v", i, got[i], wp[i])
		}
	}
}
