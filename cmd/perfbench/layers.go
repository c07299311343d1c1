package main

// perLayer lists every per-layer metric a traced run prints, with its
// unit. A traced run prints all of them; a layer its workload does not
// exercise reads 0 (README.md maps each metric to its workload and to the
// end-to-end metric it should move).
var perLayer = []struct{ name, unit string }{
	{"bench.trace_overhead_frac", "ratio"},

	// paper-sweep
	{"core.solve_ms.lifo_bfn_lb1", "ms"},
	{"core.solve_ms.llb_bfn_lb1", "ms"},
	{"core.solve_ms.lifo_df_lb1", "ms"},
	{"core.solve_ms.lifo_bfn_lb0", "ms"},
	{"core.ns_per_vertex", "ns"},
	{"core.gc_cpu_frac", "ratio"},
	{"sched.place_undo_ns", "ns"},
	{"edf.upper_bound_us", "us"},
	{"core.mallocs_per_op", "count/op"},
	{"core.max_active_set", "count"},
	{"core.vertices_per_op", "count/op"},
	{"core.expanded_per_op", "count/op"},
	{"core.prune_frac", "ratio"},

	// dedup-wide
	{"transpose.new_ms", "ms"},
	{"transpose.fill_frac", "ratio"},
	{"transpose.hit_frac", "ratio"},
	{"core.dedup_pruned_per_op", "count/op"},
	{"core.nodedup_ms_p50", "ms"},

	// request-path probe, in paper-sweep's traced run
	{"server.hit_ms_p50", "ms"},
	{"server.relabel_ms_p50", "ms"},
	{"server.miss_ms_p50", "ms"},
	{"taskgraph.decode_us", "us"},
	{"taskgraph.canonical_us", "us"},
	{"grid.admit_us", "us"},
	{"server.encode_us", "us"},
	{"core.solve_ms.df", "ms"},
	{"server.residual_us", "us"},
	{"server.hit_frac", "ratio"},
	{"server.solves", "count"},
}

func unitOf(name string) string {
	for _, l := range perLayer {
		if l.name == name {
			return l.unit
		}
	}
	panic("perfbench: unknown per-layer metric " + name)
}
