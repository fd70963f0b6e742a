// Command lrdfit runs the paper's trace→prediction pipeline end to end:
// ingest a binned rate trace, fit the model ingredients (histogram
// marginal, mean-epoch θ calibration, Hurst estimation with every
// estimator reporting independently), build the fitted queue from the fit
// reply as any registered traffic model, and answer a queueing question
// about it — a forward loss prediction, or the inverse capacity-planning
// solve "what is the minimal buffer (or service rate) meeting a loss SLO?".
//
// Input (one of):
//
//	-csv FILE     — a "time,rate" CSV trace (lrdtrace's format)
//	-gen mtv      — the MTV video stand-in (107,892 NTSC frames, H = 0.83)
//	-gen bellcore — the Bellcore Ethernet stand-in (10 ms bins, H = 0.9)
//	-gen fgn      — copula-FGN synthetic (-gen-hurst, -gen-mean, -gen-cov,
//	                -bins, -binwidth, -seed)
//
// The fit stage mirrors POST /v1/fit (same implementation, internal/fit):
// -histbins sets the histogram resolution, -estimator picks which Hurst
// estimate drives the model (default: median of the estimators that
// succeeded), -hurst overrides estimation entirely, -cutoff sets the
// correlation cutoff lag Tc the fitted source carries, and -model /
// -model-params realize the fit as any registry model.
//
// The predict stage is optional:
//
//	-buffer with -util or -service   → forward solve (loss prediction)
//	-slo, plus -util/-service        → minimal buffer meeting the SLO
//	-slo -slo-target service -buffer → minimal service rate meeting it
//
// -json emits the machine-readable result (the /v1/fit response plus the
// solve and provision results) instead of the human report.
//
// Examples:
//
//	lrdfit -gen fgn -gen-hurst 0.8
//	lrdfit -csv trace.csv -cutoff 10 -util 0.8 -buffer 0.5
//	lrdfit -csv trace.csv -cutoff 10 -util 0.8 -slo 1e-6
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"

	"lrd/internal/api"
	"lrd/internal/cliflags"
	"lrd/internal/core"
	"lrd/internal/fft"
	"lrd/internal/fit"
	"lrd/internal/obs"
	"lrd/internal/solver"
	"lrd/internal/traces"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// output is the -json result shape: the fit always, the solve and
// provision sections only when that stage ran.
type output struct {
	Fit       api.FitResponse        `json:"fit"`
	Solve     *api.SolveResponse     `json:"solve,omitempty"`
	Provision *api.ProvisionResponse `json:"provision,omitempty"`
}

// run is the testable body of main: it parses args with its own FlagSet,
// writes the report to stdout, diagnostics to stderr, and returns the exit
// code instead of calling os.Exit.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lrdfit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		csvPath  = fs.String("csv", "", "CSV trace file to fit (lrdtrace's time,rate format)")
		gen      = fs.String("gen", "", "synthetic trace to fit: mtv, bellcore, fgn")
		seed     = fs.Int64("seed", 1, "random seed for -gen")
		genHurst = fs.Float64("gen-hurst", 0.8, "fgn: Hurst parameter of the generated trace")
		genMean  = fs.Float64("gen-mean", 1, "fgn: mean rate of the generated trace")
		genCov   = fs.Float64("gen-cov", 0.5, "fgn: coefficient of variation of the generated marginal")
		bins     = fs.Int("bins", 1<<14, "fgn: number of samples")
		binWidth = fs.Float64("binwidth", 0.01, "fgn: seconds per bin")

		histBins  = fs.Int("histbins", 0, "fit histogram resolution (0 = the paper's 50)")
		estimator = fs.String("estimator", "", "Hurst estimator driving the model: aggvar, rs, whittle, wavelet, gph (default: median of successes)")
		hurst     = fs.Float64("hurst", 0, "override the Hurst estimate (estimators still run as diagnostics)")
		cutoff    = fs.Float64("cutoff", 0, "correlation cutoff lag Tc in seconds carried by the fit (0 = infinite)")

		util    = fs.Float64("util", 0, "target utilization in (0, 1); sets the service rate from the fitted mean")
		service = fs.Float64("service", 0, "service rate c in work units/s; alternative to -util")
		buffer  = fs.Float64("buffer", 0, "normalized buffer size B/c in seconds (forward solve, or fixed buffer for -slo-target service)")

		slo       = fs.Float64("slo", 0, "loss-rate SLO: run the inverse solve for the minimal -slo-target meeting it")
		sloTarget = fs.String("slo-target", "buffer", "provisioned dimension: buffer or service")
		sloMin    = fs.Float64("slo-min", 0, "lower end of the provisioning bracket (0 = default)")
		sloMax    = fs.Float64("slo-max", 0, "upper end of the provisioning bracket (0 = default)")
		sloTol    = fs.Float64("slo-tol", 0, "relative width at which the provisioning bracket converges (0 = 0.01)")

		relGap  = fs.Float64("relgap", 0.2, "bound convergence target (paper: 0.2)")
		maxBins = fs.Int("maxbins", 0, "resolution cap (default 32768)")
		jsonOut = fs.Bool("json", false, "emit the machine-readable result (fit + solve + provision) instead of the report")
	)
	budget := cliflags.BudgetGroup(fs)
	oflags := cliflags.ObsGroup(fs)
	modelSpecs := cliflags.ModelGroup(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cli, err := obs.StartCLI(oflags.CLIOptions("lrdfit", stderr))
	if err != nil {
		fmt.Fprintf(stderr, "lrdfit: %v\n", err)
		return 1
	}
	defer cli.Close()
	logger := obs.NewLogger(stderr, "lrdfit", cli.Trace())
	fail := func(format string, args ...any) int {
		logger.Error(fmt.Sprintf("lrdfit: "+format, args...))
		return 1
	}
	fft.SetRecorder(cli.Recorder())

	// Stage 1: the trace.
	tr, err := loadTrace(*csvPath, *gen, *seed, *genHurst, *genMean, *genCov, *bins, *binWidth)
	if err != nil {
		return fail("%v", err)
	}

	// Stage 2: the fit (same implementation as POST /v1/fit).
	specs, err := modelSpecs()
	if err != nil {
		return fail("%v", err)
	}
	if len(specs) != 1 {
		return fail("-model takes a single model; use lrdsweep for side-by-side model comparisons")
	}
	res, err := fit.Trace(tr, fit.Options{
		Bins:      *histBins,
		Estimator: *estimator,
		Hurst:     *hurst,
		Cutoff:    *cutoff,
		Model:     specs[0],
	})
	if err != nil {
		return fail("fit: %v", err)
	}
	out := output{Fit: res}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	ctx = cli.Context(ctx)
	ctx, cancel := budget.Context(ctx)
	defer cancel()
	cfg := solver.Config{RelGap: *relGap, MaxBins: *maxBins, Recorder: cli.Recorder()}

	// Stage 3 (optional): predict. Forward solve at a given buffer, inverse
	// solve to a given SLO, or both when both dimensions are pinned. The
	// fitted queue is built from the fit reply, as an lrdserve client does.
	wantSolve := *buffer > 0 && *sloTarget != core.TargetService
	if wantSolve || *slo > 0 {
		q := res.SolveRequest(*util, *buffer)
		q.Service = *service
		// The util/service rule is checked here as well as in Queue because
		// the inverse solve takes both fields unbuilt.
		if q.Util != 0 && q.Service != 0 {
			return fail("give either util or service, not both")
		}
		_, src, err := q.Source()
		if err != nil {
			return fail("%v", err)
		}
		if wantSolve {
			mdl, err := q.Queue(src)
			if err != nil {
				return fail("%v", err)
			}
			sres, err := solver.SolveModelContext(ctx, mdl, cfg)
			if err != nil {
				return fail("solve: %v", err)
			}
			solve := api.NewSolveResponse(sres, "")
			out.Solve = &solve
		}
		if *slo > 0 {
			preq := api.ProvisionRequest{
				SolveRequest: q,
				SLO:          *slo,
				Target:       *sloTarget,
				Min:          *sloMin,
				Max:          *sloMax,
				Tol:          *sloTol,
			}
			prov, err := core.Provision(ctx, src, preq.Options(cfg))
			if err != nil {
				return fail("provision: %v", err)
			}
			resp := api.NewProvisionResponse(prov, *slo)
			out.Provision = &resp
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		if err := enc.Encode(out); err != nil {
			return fail("%v", err)
		}
		return 0
	}
	report(stdout, tr, out)
	return 0
}

// loadTrace resolves the input stage: a CSV file or a synthetic generator.
func loadTrace(csvPath, gen string, seed int64, genHurst, genMean, genCov float64, bins int, binWidth float64) (traces.Trace, error) {
	switch {
	case csvPath != "" && gen != "":
		return traces.Trace{}, errors.New("give either -csv or -gen, not both")
	case csvPath != "":
		f, err := os.Open(csvPath)
		if err != nil {
			return traces.Trace{}, err
		}
		defer f.Close()
		return traces.ReadCSV(f)
	case gen != "":
		rng := rand.New(rand.NewSource(seed))
		switch gen {
		case "mtv":
			return traces.MTV(rng)
		case "bellcore":
			return traces.Bellcore(rng)
		case "fgn":
			return traces.Synthesize(traces.Config{
				Name:     "fgn",
				Hurst:    genHurst,
				Bins:     bins,
				BinWidth: binWidth,
				Quantile: traces.LognormalQuantile(genMean, genCov),
			}, rng)
		default:
			return traces.Trace{}, fmt.Errorf("unknown generator %q (want mtv, bellcore, or fgn)", gen)
		}
	default:
		return traces.Trace{}, errors.New("one of -csv or -gen is required")
	}
}

// report renders the human-readable pipeline summary: the fit with
// per-estimator diagnostics, then whichever predictions ran.
func report(w io.Writer, tr traces.Trace, out output) {
	f := out.Fit
	fmt.Fprintf(w, "trace      %s: %d × %.4g s, mean rate %.6g\n", tr.Name, f.Samples, f.BinWidth, f.MeanRate)
	fmt.Fprintf(w, "fit        H=%.3f (%s), alpha=%.4g, theta=%.4g, mean epoch %.4g s\n",
		f.Hurst, f.Estimator, f.Alpha, f.Theta, f.MeanEpoch)
	if f.RawHurst != f.Hurst {
		fmt.Fprintf(w, "           raw estimate %.3f clamped into [%.2f, %.2f]\n", f.RawHurst, fit.MinHurst, fit.MaxHurst)
	}
	for _, name := range []string{"aggvar", "rs", "whittle", "wavelet", "gph"} {
		e, ok := f.Estimates[name]
		switch {
		case !ok:
		case e.Error != "":
			fmt.Fprintf(w, "           %-8s failed: %s\n", name, e.Error)
		default:
			fmt.Fprintf(w, "           %-8s H=%.3f\n", name, e.Hurst)
		}
	}
	fmt.Fprintf(w, "model      %s\n", f.Model.Key())
	if s := out.Solve; s != nil {
		fmt.Fprintf(w, "loss       %.6g  bounds [%.6g, %.6g]\n", s.Loss, s.Lower, s.Upper)
		if s.Degraded != "" {
			fmt.Fprintf(w, "           degraded: %s\n", s.Degraded)
		}
	}
	if p := out.Provision; p != nil {
		unit := "s (normalized buffer B/c)"
		if p.Target == core.TargetService {
			unit = "work units/s"
		}
		fmt.Fprintf(w, "provision  minimal %s %.6g %s for loss SLO %.3g\n", p.Target, p.Value, unit, p.SLO)
		fmt.Fprintf(w, "           proven loss bound %.3g at the answer; %.6g (next bracket point below) still loses %.3g\n",
			p.Loss, p.Bracket, p.BracketLoss)
		fmt.Fprintf(w, "           %d solves (%d warm-started)", p.Solves, p.WarmSolves)
		if p.Util > 0 {
			fmt.Fprintf(w, ", utilization %.4g", p.Util)
		}
		fmt.Fprintln(w)
	}
}
