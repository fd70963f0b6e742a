package main

import (
	"context"
	"fmt"
	"math"

	"lrd/internal/api"
	"lrd/internal/core"
	"lrd/internal/resilient"
	"lrd/internal/solver"
	"lrd/internal/source"
)

// remoteSolver adapts the typed /v1 fleet client into a core.RemoteSolveFunc:
// each sweep cell becomes a POST /v1/solve against the -fleet replicas, with
// retries, circuit breaking, and hedging handled by the underlying resilient
// client. The request ships the reference source's exact parameters (alpha
// rather than the derived Hurst, the normalized marginal in shortest
// round-trippable form), so the replica reconstructs bit-identical solver
// inputs; the returned Point carries the reply's bracket, which the sweep
// places at the cell's coordinates.
func remoteSolver(client *resilient.Client) core.RemoteSolveFunc {
	typed := api.NewClient(client)
	return func(ctx context.Context, cell core.RemoteCell) (core.Point, error) {
		req := api.SolveRequest{
			Marginal: source.FormatMarginal(cell.Ref.Marginal),
			Alpha:    cell.Ref.Interarrival.Alpha,
			Theta:    cell.Ref.Interarrival.Theta,
			Util:     cell.Util,
			Buffer:   cell.NormalizedBuffer,
			Model:    cell.Model,
			Solver: api.SolverParams{
				RelGap:  cell.Config.RelGap,
				MaxBins: cell.Config.MaxBins,
			},
		}
		// The wire encoding reads 0 as "no cutoff"; +Inf does not survive
		// JSON anyway.
		if !math.IsInf(cell.Ref.Interarrival.Cutoff, 1) {
			req.Cutoff = cell.Ref.Interarrival.Cutoff
		}
		res, _, err := typed.Solve(ctx, req)
		if err != nil {
			return core.Point{}, fmt.Errorf("remote solve: %w", err)
		}
		return core.Point{
			Loss:      res.Loss,
			Lower:     res.Lower,
			Upper:     res.Upper,
			Converged: res.Converged,
			Degraded:  solver.DegradeReason(res.Degraded),
		}, nil
	}
}
