package experiments

import (
	"fmt"
	"strings"

	"repro/internal/metrics"
	"repro/internal/predict"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Figure11App holds one application's online prediction accuracy (root
// mean square error of predicting L2 cache misses per instruction) for
// each predictor.
type Figure11App struct {
	App string
	// RMSE maps predictor label to its Equation 7 error.
	RMSE map[string]float64
	// Labels preserves presentation order.
	Labels []string
}

// Figure11Result reproduces Figure 11: accuracy of predicting L2 cache
// misses per instruction for TPCH and WeBWorK under the request-average
// and last-value predictors and the vaEWMA filter across gain settings.
type Figure11Result struct {
	Apps []Figure11App
}

// figure11Alphas is the paper's gain sweep.
var figure11Alphas = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}

// Figure11 replays each traced request's period stream through every
// predictor: at each sampling moment the predictor estimates the metric
// value for the coming period, then observes it. Errors are pooled over
// requests with Equation 7's length weighting. The unit observation length
// t̂ is 1 ms.
func Figure11(cfg Config) (*Figure11Result, error) {
	out := &Figure11Result{}
	apps := []workload.App{workload.NewTPCH(), workload.NewWeBWorK()}
	for _, app := range apps {
		n := cfg.modelingRequests(app.Name())
		res, err := runTracked(cfg, app, 0, n, false)
		if err != nil {
			return nil, fmt.Errorf("figure11 %s: %w", app.Name(), err)
		}
		fa := Figure11App{App: app.Name(), RMSE: map[string]float64{}}

		mkPredictors := func() (map[string]predict.Predictor, []string) {
			const unitNs = 1e6 // 1 ms
			ps := map[string]predict.Predictor{
				"request average": predict.NewRequestAverage(),
				"last value":      predict.NewLastValue(),
			}
			labels := []string{"request average", "last value"}
			for _, a := range figure11Alphas {
				l := fmt.Sprintf("vaEWMA a=%.1f", a)
				ps[l] = predict.NewVaEWMA(a, unitNs)
				labels = append(labels, l)
			}
			return ps, labels
		}
		preds, labels := mkPredictors()
		fa.Labels = labels

		actuals := map[string][]float64{}
		predicted := map[string][]float64{}
		weights := map[string][]float64{}
		for _, tr := range res.Store.Traces {
			for _, l := range labels { // ordered: never range the preds map
				preds[l].Reset()
			}
			first := true
			for _, period := range tr.Periods {
				if period.C.Instructions == 0 || period.Dur <= 0 {
					continue
				}
				val := period.C.Value(metrics.L2MissesPerIns)
				dur := float64(period.Dur)
				for _, l := range labels {
					p := preds[l]
					if !first {
						actuals[l] = append(actuals[l], val)
						predicted[l] = append(predicted[l], p.Predict())
						weights[l] = append(weights[l], dur)
					}
					p.Observe(val, dur)
				}
				first = false
			}
		}
		for _, l := range labels {
			fa.RMSE[l] = stats.RMSE(actuals[l], predicted[l], weights[l])
		}
		out.Apps = append(out.Apps, fa)
	}
	return out, nil
}

// Best returns the label with the lowest RMSE for an application.
func (a Figure11App) Best() string {
	best, bestV := "", 0.0
	for _, l := range a.Labels {
		if best == "" || a.RMSE[l] < bestV {
			best, bestV = l, a.RMSE[l]
		}
	}
	return best
}

// String renders the predictor comparison.
func (r *Figure11Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 11: RMSE of predicting L2 misses per instruction\n")
	for _, a := range r.Apps {
		fmt.Fprintf(&b, "\n%s (best: %s):\n", a.App, a.Best())
		var rows [][]string
		for _, l := range a.Labels {
			rows = append(rows, []string{l, fmt.Sprintf("%.3e", a.RMSE[l])})
		}
		b.WriteString(table([]string{"predictor", "RMSE"}, rows))
	}
	return b.String()
}
