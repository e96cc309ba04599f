package main

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/obs"
)

// metricDef names one reported metric and its unit, exactly as
// BENCHMARK.json declares it.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the daemon sees, reported by every
// run with --trace 0. error_ratio is printed in the report lines; the
// result line carries its complement success_ratio, which is never 0.
var endToEnd = []metricDef{
	{"throughput_ops_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"recon_mse_c2", "degC2"},
	{"success_ratio", "ratio"},
}

// perLayer are the traced run's per-layer metrics (--trace 1). Serving-path
// figures are per measured op; create-path figures are per create (the
// setup's creates on serving workloads, the measured ops on provision).
var perLayer = []metricDef{
	{"recon.solve_ms_per_op", "ms"},
	{"recon.solve_gflop_s", "GFLOP/s"},
	{"emapsd.decode_ms_per_op", "ms"},
	{"emapsd.encode_ms_per_op", "ms"},
	{"store.page_in_ms_per_op", "ms"},
	{"store.page_in_ratio", "ratio"},
	{"store.evictions", "count"},
	{"governor.step_ms_per_op", "ms"},
	{"drift.score_ms_per_op", "ms"},
	{"drift.adapt_ms_per_op", "ms"},
	{"drift.adaptations", "count"},
	{"drift.alarm_ratio", "ratio"},
	{"emapsd.estimate_handler_ms", "ms"},
	{"emapsd.govern_handler_ms", "ms"},
	{"emapsd.track_handler_ms", "ms"},
	{"emapsd.transport_ms_per_op", "ms"},
	{"emapsd.gc_cycles_per_kop", "count"},
	{"emapsd.gc_pause_ms_per_op", "ms"},
	{"emapsd.runq_wait_ms_per_op", "ms"},
	{"dataset.generate_ms_per_op", "ms"},
	{"basis.train_ms_per_op", "ms"},
	{"place.greedy_ms_per_op", "ms"},
	{"recon.fold_ms_per_op", "ms"},
	{"drift.calibrate_ms_per_op", "ms"},
	{"store.save_ms_per_op", "ms"},
	{"store.models_evicted", "count"},
	{"emapsd.create_handler_ms", "ms"},
	{"emapsd.create_residual_ms", "ms"},
	{"client.latency_p99_ms", "ms"},
	{"client.ops", "count"},
	{"client.cpu_ms_per_op", "ms"},
	{"host.steal_pct", "%"},
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// finite maps an undefined ratio (no samples) to 0 so the result line
// stays valid JSON.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// Wall-clock figures are measured on the guest's runnable time: each is
// scaled by the share of runnable vCPU time the hypervisor did not steal
// over the interval it was measured in (see stealShare). On a shared host
// that share moved throughput by 1.5× between consecutive runs of the same
// code; ops per stolen-time-free second stayed within a few percent.

// throughput is completed ops per second of runnable time. Serving
// workloads report the median over the measured phase's whole one-second
// windows; provision, whose ops take about a second each, reports ops over
// the elapsed time.
func (r *passResult) throughput() float64 {
	if !r.windowed {
		return float64(r.ops()) / (r.meas.elapsed.Seconds() * (1 - stealShare(r.p1.host, r.p2.host)))
	}
	rates, f := r.meas.windowRates(), r.meas.windowSteal()
	for i := range rates {
		rates[i] /= 1 - f[i]
	}
	return median(rates)
}

// latencyP50 is the nearest-rank median op latency on runnable time.
// Provision alternates two die configurations whose op times form two
// modes, and the pooled median of a balanced two-mode mix is an extreme
// order statistic of one mode; it reports the mean of the two
// configurations' medians instead.
func (r *passResult) latencyP50() float64 {
	if r.windowed {
		return summarize(r.meas.stealFree()).P50
	}
	return (median(r.byConfig[0]) + median(r.byConfig[1])) / 2
}

// e2e computes the end-to-end metrics of a pass.
func (r *passResult) e2e() map[string]float64 {
	ops := float64(r.ops())
	return map[string]float64{
		"throughput_ops_s": finite(r.throughput()),
		"latency_p50_ms":   finite(r.latencyP50()),
		"cpu_ms_per_op":    finite(ms(r.p2.sched.CPU-r.p1.sched.CPU) / ops),
		"setup_s":          median(r.setups),
		"peak_rss_mb":      float64(r.hwmBytes) / (1 << 20),
		"recon_mse_c2":     finite(r.mse),
		"success_ratio":    finite(float64(r.meas.ops-r.meas.failed) / float64(r.meas.ops)),
	}
}

// layersMetrics computes the per-layer metrics of a traced pass.
func (r *passResult) layersMetrics() map[string]float64 {
	ops := float64(r.ops())
	d := r.m2.delta(r.m1)
	stage := func(st string) float64 {
		return finite(1000 * d.value("emapsd_stage_duration_seconds_sum", "stage", st) / ops)
	}
	handler := func(route string) float64 {
		m, _ := d.histMean("emapsd_request_duration_seconds", "route", route)
		return m
	}
	lat := summarize(r.meas.lat)
	creates := float64(r.creates)
	perCreate := func(sum time.Duration) float64 { return finite(ms(sum) / creates) }
	createMS, _ := r.createSnap.histMean("emapsd_request_duration_seconds", "route", "create")
	lt := r.layers
	layerSum := lt.generate + lt.train + lt.place + lt.fold + lt.calibrate + lt.save
	return map[string]float64{
		"recon.solve_ms_per_op":      stage("solve"),
		"recon.solve_gflop_s":        finite(r.meas.solveFlop / (r.meas.solveMS / 1000) / 1e9),
		"emapsd.decode_ms_per_op":    stage("decode"),
		"emapsd.encode_ms_per_op":    stage("encode"),
		"store.page_in_ms_per_op":    stage("page_in"),
		"store.page_in_ratio":        finite(d.value("emapsd_monitors_loaded_total") / ops),
		"store.evictions":            d.value("emapsd_monitors_evicted_total"),
		"governor.step_ms_per_op":    stage("govern"),
		"drift.score_ms_per_op":      stage("drift_score"),
		"drift.adapt_ms_per_op":      stage("adapt"),
		"drift.adaptations":          d.value("emapsd_adaptations_total"),
		"drift.alarm_ratio":          finite(float64(r.meas.drifting+r.meas.degraded) / ops),
		"emapsd.estimate_handler_ms": handler("estimate"),
		"emapsd.govern_handler_ms":   handler("govern"),
		"emapsd.track_handler_ms":    handler("track"),
		"emapsd.transport_ms_per_op": finite(lat.Mean - r.handlerPerOp(d)),
		"emapsd.gc_cycles_per_kop":   finite(1000 * d.value("emapsd_gc_cycles_total") / ops),
		"emapsd.gc_pause_ms_per_op":  finite(1000 * d.value("emapsd_gc_pause_seconds_total") / ops),
		"emapsd.runq_wait_ms_per_op": finite(ms(r.p2.sched.Wait-r.p1.sched.Wait) / ops),
		"dataset.generate_ms_per_op": perCreate(lt.generate),
		"basis.train_ms_per_op":      perCreate(lt.train),
		"place.greedy_ms_per_op":     perCreate(lt.place),
		"recon.fold_ms_per_op":       perCreate(lt.fold),
		"drift.calibrate_ms_per_op":  perCreate(lt.calibrate),
		"store.save_ms_per_op":       perCreate(lt.save),
		"store.models_evicted":       d.value("emapsd_models_evicted_total"),
		"emapsd.create_handler_ms":   createMS,
		"emapsd.create_residual_ms":  finite(createMS - ms(layerSum)/creates),
		"client.latency_p99_ms":      finite(lat.P99),
		"client.ops":                 ops,
		"client.cpu_ms_per_op":       finite(ms(r.p2.self-r.p1.self) / ops),
		"host.steal_pct":             stealPct(r.p1.host, r.p2.host),
	}
}

// handlerPerOp is the daemon's mean handler time per op: the summed
// latency of the op's routes over the measured phase, per op.
func (r *passResult) handlerPerOp(d promSnapshot) float64 {
	var sum float64
	for _, route := range r.handlerRoutes {
		sum += d.value("emapsd_request_duration_seconds_sum", "route", route)
	}
	return 1000 * sum / float64(r.ops())
}

// printRun writes the human-readable report of a pass: host diagnostics,
// setup and verification, drift by phase, and the end-to-end metrics.
func printRun(w io.Writer, o *options, label string, r *passResult) {
	ops := r.ops()
	fmt.Fprintf(w, "[%s] host: nproc=%d harness_gomaxprocs=%d daemon_gomaxprocs=%d steal_pct=%.2f daemon_runq_wait_ms_per_op=%.4f harness_cpu_ms_per_op=%.4f\n",
		label, o.nproc, o.harnessProcs, o.daemonProcs, stealPct(r.p1.host, r.p2.host),
		finite(ms(r.p2.sched.Wait-r.p1.sched.Wait)/float64(ops)), finite(ms(r.p2.self-r.p1.self)/float64(ops)))
	fmt.Fprintf(w, "[%s] setup: %d runs, runnable seconds %v (median %.4f), wall seconds %v (median %.4f)\n",
		label, len(r.setups), roundAll(r.setups, 4), median(r.setups), roundAll(r.setupsWall, 4), median(r.setupsWall))
	if r.windowed {
		fmt.Fprintf(w, "[%s] verify: %d monitors, %d cells, max |daemon - reference| = %.3g degC (tol %g), mse = %.6g degC2\n",
			label, r.verify.monitors, r.verify.cells, r.verify.maxDiff, verifyTol, r.mse)
	} else {
		fmt.Fprintf(w, "[%s] verify: every first estimate finite with all N cells; warm-up op mse = %.6g degC2 over %d cells\n",
			label, r.mse, r.verify.cells)
	}
	if r.warm != nil && r.warm.ops > 0 {
		ddrift, ddeg := driftGauges(r.m1)
		fmt.Fprintf(w, "[%s] drift warm-up: ops=%d drifting=%d degraded=%d adaptations=%.0f monitors_out_of_ok_at_end=%d\n",
			label, r.warm.ops, r.warm.drifting, r.warm.degraded, r.m1.delta(r.m0).value("emapsd_adaptations_total"), ddrift+ddeg)
		ddrift, ddeg = driftGauges(r.m2)
		fmt.Fprintf(w, "[%s] drift measured: ops=%d drifting=%d degraded=%d adaptations=%.0f monitors_out_of_ok_at_end=%d\n",
			label, r.meas.ops, r.meas.drifting, r.meas.degraded, r.m2.delta(r.m1).value("emapsd_adaptations_total"), ddrift+ddeg)
	}
	if r.poolExhausted {
		fmt.Fprintf(w, "[%s] note: the op pool ran out before the run time; the phase ended early\n", label)
	}
	lat := summarize(r.meas.lat)
	e := r.e2e()
	procCPU := ms(r.p2.cpu - r.p1.cpu)
	fmt.Fprintf(w, "[%s] e2e throughput_ops_s = %.4f 1/s on runnable time (wall clock: %d ops in %.3f s, %.4f 1/s; steal share of runnable time %.3f)\n",
		label, e["throughput_ops_s"], ops, r.meas.elapsed.Seconds(), float64(ops)/r.meas.elapsed.Seconds(), stealShare(r.p1.host, r.p2.host))
	if r.windowed {
		fmt.Fprintf(w, "[%s] ops per one-second window %v; steal share per window %v\n", label, r.meas.windowRates(), roundAll(r.meas.windowSteal(), 3))
	}
	fmt.Fprintf(w, "[%s] e2e latency_p50_ms = %.4f ms on runnable time (n=%d); wall clock p50 %.4f ms, p99 %.4f ms (n=%d, not gated), mean %.4f ms\n",
		label, e["latency_p50_ms"], lat.N, lat.P50, lat.P99, lat.N, lat.Mean)
	if !r.windowed {
		fmt.Fprintf(w, "[%s] provision p50 by configuration: t1 %.4f ms (n=%d), manycore-256c %.4f ms (n=%d)\n",
			label, median(r.byConfig[0]), len(r.byConfig[0]), median(r.byConfig[1]), len(r.byConfig[1]))
	}
	fmt.Fprintf(w, "[%s] e2e cpu_ms_per_op = %.4f ms (schedstat; /proc stat utime+stime gives %.4f)\n",
		label, e["cpu_ms_per_op"], finite(procCPU/float64(ops)))
	fmt.Fprintf(w, "[%s] e2e setup_s = %.4f s on runnable time (wall clock %.4f s)\n", label, e["setup_s"], median(r.setupsWall))
	fmt.Fprintf(w, "[%s] e2e peak_rss_mb = %.3f MB\n", label, e["peak_rss_mb"])
	fmt.Fprintf(w, "[%s] e2e recon_mse_c2 = %.6g degC2 (over %d cells)\n", label, e["recon_mse_c2"], r.verify.cells)
	fmt.Fprintf(w, "[%s] e2e error_ratio = %.6g (%d failed of %d attempted)\n", label, finite(float64(r.meas.failed)/float64(r.meas.ops)), r.meas.failed, r.meas.ops)
	if r.meas.firstErr != nil {
		fmt.Fprintf(w, "[%s] first failure: %v\n", label, r.meas.firstErr)
	}
}

// printLayers writes the traced pass's per-layer metrics and the
// reconciliation of daemon stage means plus transport against the
// client's mean op latency.
func printLayers(w io.Writer, r *passResult) {
	m := r.layersMetrics()
	for _, def := range perLayer {
		fmt.Fprintf(w, "[traced] layer %s = %.6g %s\n", def.name, m[def.name], def.unit)
	}
	d := r.m2.delta(r.m1)
	ops := float64(r.ops())
	var stageSum float64
	fmt.Fprintf(w, "[traced] reconcile (ms per op):")
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		v := 1000 * d.value("emapsd_stage_duration_seconds_sum", "stage", st.String()) / ops
		stageSum += v
		fmt.Fprintf(w, " %s %.4f", st, v)
	}
	fmt.Fprintln(w)
	handler := r.handlerPerOp(d)
	client := summarize(r.meas.lat).Mean
	createPerOp := 0.0
	if r.handlerRoutes[0] == "create" {
		createPerOp = 1000 * d.value("emapsd_request_duration_seconds_sum", "route", "create") / ops
	}
	unattributed := handler - createPerOp - stageSum
	transport := client - handler
	fmt.Fprintf(w, "[traced] reconcile: create handler %.4f + stages %.4f + unattributed handler time %.4f + transport %.4f = %.4f ms; client mean %.4f ms (stages cover %.1f%% of the serving handlers)\n",
		createPerOp, stageSum, unattributed, transport, createPerOp+stageSum+unattributed+transport, client,
		finite(100*stageSum/(handler-createPerOp)))
}

// printOverhead writes traced − untraced for every end-to-end metric.
func printOverhead(w io.Writer, untraced, traced *passResult) {
	a, b := untraced.e2e(), traced.e2e()
	for _, def := range endToEnd {
		delta := b[def.name] - a[def.name]
		fmt.Fprintf(w, "[traced] tracing overhead %s: traced %.6g - untraced %.6g = %+.6g %s (%+.2f%%)\n",
			def.name, b[def.name], a[def.name], delta, def.unit, finite(100*delta/a[def.name]))
	}
}

func roundAll(xs []float64, digits int) []float64 {
	p := math.Pow(10, float64(digits))
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*p) / p
	}
	return out
}
