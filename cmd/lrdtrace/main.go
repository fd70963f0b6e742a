// Command lrdtrace synthesizes and analyzes binned rate traces.
//
// Generation modes (-gen):
//
//	mtv       — the MTV stand-in (107,892 NTSC frames, H = 0.83)
//	bellcore  — the Bellcore Ethernet stand-in (10 ms bins, H = 0.9)
//	lognormal — custom copula-FGN trace (-mean, -cov, -hurst, -bins, -binwidth)
//	onoff     — superposition of heavy-tailed on/off sources (-sources, ...)
//	model     — any registered traffic model (-model, -model-params) fitted
//	            to the reference source built from -marginal, -hurst,
//	            -epoch, -cutoff (0 = infinite) by the /v1/solve rules;
//	            sampled into -bins × -binwidth bins
//
// Analysis (-analyze FILE or -gen X without -out) prints the trace's mean
// rate, 50-bin marginal summary, mean epoch duration, and all four Hurst
// estimates — the statistics the paper's §III extracts from its traces.
//
// Observability flags (shared with the other lrd commands): -metrics writes
// a JSON metrics snapshot on exit (FFT and synthesis counters), -trace
// streams solver convergence points as JSONL (empty here — lrdtrace runs no
// solver), -progress prints a periodic status line, and -pprof serves
// net/http/pprof plus an expvar metrics export.
//
// Examples:
//
//	lrdtrace -gen mtv -out mtv.csv
//	lrdtrace -analyze mtv.csv
//	lrdtrace -gen onoff -sources 64 -hurst 0.8
//	lrdtrace -gen model -model markov -marginal 0:0.5,2:0.5 -epoch 0.05
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"lrd/internal/api"
	"lrd/internal/cliflags"
	"lrd/internal/fft"
	"lrd/internal/lrdest"
	"lrd/internal/obs"
	"lrd/internal/onoff"
	"lrd/internal/source"
	"lrd/internal/traces"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the testable body of main: it parses args with its own FlagSet and
// writes the report to stdout, diagnostics to stderr, returning the exit
// code instead of calling os.Exit.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lrdtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		gen      = fs.String("gen", "", "trace to generate: mtv, bellcore, lognormal, onoff, model")
		analyze  = fs.String("analyze", "", "CSV trace file to analyze")
		out      = fs.String("out", "", "write the generated trace to this CSV file")
		seed     = fs.Int64("seed", 1, "random seed")
		mean     = fs.Float64("mean", 5, "lognormal: mean rate")
		cov      = fs.Float64("cov", 0.5, "lognormal: coefficient of variation")
		hurst    = fs.Float64("hurst", 0.85, "lognormal/onoff: Hurst parameter")
		bins     = fs.Int("bins", 1<<15, "lognormal: number of samples")
		binWidth = fs.Float64("binwidth", 0.01, "lognormal/onoff: seconds per bin")
		sources  = fs.Int("sources", 32, "onoff: number of superposed sources")
		marginal = fs.String("marginal", "0:0.5,2:0.5", "model: reference marginal as rate:prob pairs")
		epoch    = fs.Float64("epoch", 0.05, "model: mean epoch duration in seconds (calibrates θ)")
		cutoff   = fs.Float64("cutoff", 10, "model: correlation cutoff lag Tc in seconds; 0 means infinite")
	)
	oflags := cliflags.ObsGroup(fs)
	modelSpecs := cliflags.ModelGroup(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cli, err := obs.StartCLI(oflags.CLIOptions("lrdtrace", stderr))
	if err != nil {
		fmt.Fprintf(stderr, "lrdtrace: %v\n", err)
		return 1
	}
	defer cli.Close()
	logger := obs.NewLogger(stderr, "lrdtrace", cli.Trace())

	bad := false
	fail := func(format string, args ...any) {
		logger.Error(fmt.Sprintf("lrdtrace: "+format, args...))
		bad = true
	}
	// Trace synthesis and Hurst estimation run on the FFT layer; the shared
	// observability group surfaces its counters the same way the solver
	// commands do.
	fft.SetRecorder(cli.Recorder())

	var tr traces.Trace
	switch {
	case *analyze != "" && *gen != "":
		fail("give either -gen or -analyze, not both")
	case *analyze != "":
		f, err := os.Open(*analyze)
		if err != nil {
			fail("%v", err)
			break
		}
		tr, err = traces.ReadCSV(f)
		f.Close()
		if err != nil {
			fail("%v", err)
		}
	case *gen != "":
		rng := rand.New(rand.NewSource(*seed))
		var err error
		switch *gen {
		case "mtv":
			tr, err = traces.MTV(rng)
		case "bellcore":
			tr, err = traces.Bellcore(rng)
		case "lognormal":
			tr, err = traces.Synthesize(traces.Config{
				Name:     "lognormal",
				Hurst:    *hurst,
				Bins:     *bins,
				BinWidth: *binWidth,
				Quantile: traces.LognormalQuantile(*mean, *cov),
			}, rng)
		case "onoff":
			alpha := 3 - 2**hurst
			tr, err = onoff.Aggregate(onoff.SourceParams{
				PeakRate: 1, MeanOn: 10 * *binWidth, MeanOff: 30 * *binWidth,
				AlphaOn: alpha, AlphaOff: alpha,
			}, *sources, *bins, *binWidth, rng)
		case "model":
			tr, err = generateModel(modelSpecs, *marginal, *hurst, *epoch, *cutoff, *bins, *binWidth, rng)
		default:
			fail("unknown generator %q", *gen)
		}
		if err != nil {
			fail("%v", err)
		}
	default:
		fail("one of -gen or -analyze is required")
	}
	if bad {
		return 1
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail("%v", err)
			return 1
		}
		if err := tr.WriteCSV(f); err != nil {
			fail("%v", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fail("%v", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %d samples to %s\n", len(tr.Rates), *out)
		return 0
	}

	// Analysis report.
	fmt.Fprintf(stdout, "trace      %s\n", tr.Name)
	fmt.Fprintf(stdout, "samples    %d × %.4g s = %.4g s\n", len(tr.Rates), tr.BinWidth, tr.Duration())
	fmt.Fprintf(stdout, "mean rate  %.6g\n", tr.MeanRate())
	if m, err := tr.Marginal(50); err == nil {
		fmt.Fprintf(stdout, "marginal   %v\n", m)
	}
	if ep, err := tr.MeanEpoch(50); err == nil {
		fmt.Fprintf(stdout, "mean epoch %.4g s\n", ep)
	}
	est := lrdest.EstimateAll(tr.Rates)
	fmt.Fprintf(stdout, "Hurst      aggvar %.3f | R/S %.3f | Whittle %.3f | wavelet %.3f | GPH %.3f\n",
		est.AggregatedVariance.Value(), est.RescaledRange.Value(), est.LocalWhittle.Value(),
		est.AbryVeitch.Value(), est.GPH.Value())
	for _, ne := range est.ByName() {
		if ne.Err != nil {
			fmt.Fprintf(stdout, "           %s failed: %v\n", ne.Name, ne.Err)
		}
	}
	if _, err := est.Median(); err != nil {
		fail("Hurst estimation: %v", err)
		return 1
	}
	return 0
}

// generateModel samples a binned rate trace from a registered traffic model
// fitted to the reference cutoff-Pareto source described by the flags,
// built by the /v1/solve rules (internal/api). The fluid model reproduces
// the reference's own generator; Markovian models sample their fitted
// interarrival law from a stationary start.
func generateModel(specsFn func() ([]source.Spec, error), marginal string, hurst, epoch, cutoff float64, bins int, binWidth float64, rng *rand.Rand) (traces.Trace, error) {
	specs, err := specsFn()
	if err != nil {
		return traces.Trace{}, err
	}
	if len(specs) != 1 {
		return traces.Trace{}, fmt.Errorf("-gen model takes a single -model entry")
	}
	req := api.SolveRequest{Marginal: marginal, Hurst: hurst, Epoch: epoch, Cutoff: cutoff, Model: specs[0]}
	_, src, err := req.Source()
	if err != nil {
		return traces.Trace{}, err
	}
	rates, err := source.GenerateBinned(src, float64(bins)*binWidth, binWidth, rng)
	if err != nil {
		return traces.Trace{}, err
	}
	return traces.Trace{Name: specs[0].Key(), Rates: rates, BinWidth: binWidth}, nil
}
