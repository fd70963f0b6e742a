package api

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"lrd/internal/dist"
	"lrd/internal/solver"
	"lrd/internal/source"
)

// TestSolveRequestRules pins the one set of rules every front end (lrdserve,
// lrdloss, lrdtrace, lrdfit) builds its queue through: each rule rejects
// with its own message, and equivalent spellings of one queue build
// bit-identical models.
func TestSolveRequestRules(t *testing.T) {
	base := SolveRequest{Marginal: "0:0.5,2:0.5", Hurst: 0.8, Epoch: 0.05, Cutoff: 10, Util: 0.8, Buffer: 0.5}
	build := func(r SolveRequest) (dist.TruncatedPareto, solver.Model, error) {
		ref, src, err := r.Source()
		if err != nil {
			return dist.TruncatedPareto{}, solver.Model{}, err
		}
		mdl, err := r.Queue(src)
		return ref.Interarrival, mdl, err
	}

	rejects := []struct {
		name string
		edit func(*SolveRequest)
		want string
	}{
		{"missing marginal", func(r *SolveRequest) { r.Marginal = "" }, "marginal is required (rate:prob pairs)"},
		{"hurst and alpha", func(r *SolveRequest) { r.Alpha = 1.4 }, "give either hurst or alpha, not both"},
		{"neither hurst nor alpha", func(r *SolveRequest) { r.Hurst = 0 }, "one of hurst or alpha is required"},
		{"neither theta nor epoch", func(r *SolveRequest) { r.Epoch = 0 }, "one of theta or epoch is required"},
		{"missing buffer", func(r *SolveRequest) { r.Buffer = 0 }, "buffer is required (seconds)"},
		{"util and service", func(r *SolveRequest) { r.Service = 2 }, "give either util or service, not both"},
		{"neither util nor service", func(r *SolveRequest) { r.Util = 0 }, "one of util or service is required"},
		{"unknown model", func(r *SolveRequest) { r.Model = source.Spec{Name: "nosuch"} }, "unknown model"},
	}
	for _, c := range rejects {
		r := base
		c.edit(&r)
		if _, _, err := build(r); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}

	withAlpha := base
	withAlpha.Hurst, withAlpha.Alpha = 0, dist.AlphaFromHurst(base.Hurst)
	infZero, infInf := base, base
	infZero.Cutoff, infInf.Cutoff = 0, math.Inf(1)
	marg, err := source.ParseMarginal(base.Marginal)
	if err != nil {
		t.Fatal(err)
	}
	withService := base
	withService.Util, withService.Service = 0, marg.Mean()/base.Util
	// Theta wins over an epoch given beside it.
	theta, err := dist.CalibrateTheta(dist.AlphaFromHurst(base.Hurst), base.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	withTheta, thetaAndEpoch := base, base
	withTheta.Epoch, withTheta.Theta = 0, theta
	thetaAndEpoch.Epoch, thetaAndEpoch.Theta = 7, theta

	same := []struct {
		name string
		a, b SolveRequest
	}{
		{"hurst vs alpha", base, withAlpha},
		{"cutoff 0 vs +Inf", infZero, infInf},
		{"util vs service", base, withService},
		{"epoch vs theta", base, withTheta},
		{"theta vs theta and epoch", withTheta, thetaAndEpoch},
	}
	for _, c := range same {
		pa, ma, err := build(c.a)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		pb, mb, err := build(c.b)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, f := range []struct {
			field string
			a, b  float64
		}{
			{"ServiceRate", ma.ServiceRate, mb.ServiceRate},
			{"Buffer", ma.Buffer, mb.Buffer},
			{"Theta", pa.Theta, pb.Theta},
			{"Alpha", pa.Alpha, pb.Alpha},
			{"Cutoff", pa.Cutoff, pb.Cutoff},
		} {
			if math.Float64bits(f.a) != math.Float64bits(f.b) {
				t.Errorf("%s: %s %v vs %v", c.name, f.field, f.a, f.b)
			}
		}
	}
	if p, _, _ := build(infZero); !math.IsInf(p.Cutoff, 1) {
		t.Errorf("cutoff 0 built Tc = %v, want +Inf", p.Cutoff)
	}
}

// TestNewSolveResponseGoldenBytes: the reply built from a solver result
// renders the same bytes as the field-by-field form it replaced.
func TestNewSolveResponseGoldenBytes(t *testing.T) {
	res := solver.Result{
		Loss: 0.5, Lower: 0.25, Upper: 0.75, Bins: 1024, Iterations: 12,
		Converged: true, Degraded: solver.DegradedDeadline, GridStep: 0.001,
	}
	got, err := json.Marshal(NewSolveResponse(res, "v1|test"))
	if err != nil {
		t.Fatal(err)
	}
	want := `{"loss":0.5,"lower":0.25,"upper":0.75,"relative_gap":1,"bins":1024,"iterations":12,"converged":true,"degraded":"deadline exceeded","grid_step":0.001,"key":"v1|test"}`
	if string(got) != want {
		t.Fatalf("NewSolveResponse bytes:\n got  %s\n want %s", got, want)
	}
}
