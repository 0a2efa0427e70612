package main

import "fmt"

// reqSpans gathers the spans of one traced request.
type reqSpans struct {
	client, handler *span
	ops, disk       []span
}

func intervalsOf(spans []span) []interval {
	out := make([]interval, len(spans))
	for i, s := range spans {
		out[i] = s.interval()
	}
	return out
}

// groupSpans indexes spans by request id.
func groupSpans(spans []span) map[int64]*reqSpans {
	by := map[int64]*reqSpans{}
	for i := range spans {
		s := &spans[i]
		r := by[s.Req]
		if r == nil {
			r = &reqSpans{}
			by[s.Req] = r
		}
		switch s.Name {
		case "client.request":
			r.client = s
		case "server.handler":
			r.handler = s
		case "pathcache.op":
			r.ops = append(r.ops, *s)
		case "disk.read", "disk.write":
			r.disk = append(r.disk, *s)
		}
	}
	return by
}

// layerMetrics derives the per-layer metrics from pass 1's served requests
// (ids 1..served) and pass 2's direct calls. It also returns a breakdown
// line splitting the mean served request into each layer's self time; the
// residual is client time no layer's span accounts for (spans clipped at
// their parent's edges), printed rather than folded in.
func layerMetrics(pl *plan, spans []span, served int, direct []directProfile, levels int) ([]metric, string) {
	by := groupSpans(spans)
	var (
		clientUS, diskUS                                           []float64
		clientSelf, handlerUS, serverSelf, opUS, pcSelf, respBytes []float64
		readUS, writeUS, flushUS, compactUS, ratios                []float64
		opNS, diskNS, pages, reads, hits, queries                  int64
		updates, stalls, inserts                                   int
		updateWrites                                               int64
	)
	for id := int64(1); id <= int64(served); id++ {
		r := by[id]
		if r == nil || r.client == nil || r.handler == nil {
			continue
		}
		clientUS = append(clientUS, r.client.us())
		clientSelf = append(clientSelf, float64(selfTime(r.client.interval(), []interval{r.handler.interval()}))/1e3)
		handlerUS = append(handlerUS, r.handler.us())
		serverSelf = append(serverSelf, float64(selfTime(r.handler.interval(), intervalsOf(r.ops)))/1e3)
		var self, diskReq int64
		stalled := false
		for _, op := range r.ops {
			opSelf := selfTime(op.interval(), intervalsOf(r.disk))
			self += opSelf
			diskReq += op.End - op.Start - opSelf
			opNS += op.End - op.Start
			opUS = append(opUS, op.us())
			switch op.Op {
			case "flush":
				flushUS = append(flushUS, op.us())
				stalled = true
			case "compact":
				compactUS = append(compactUS, op.us())
				stalled = true
			}
		}
		diskNS += diskReq
		pcSelf = append(pcSelf, float64(self)/1e3)
		diskUS = append(diskUS, float64(diskReq)/1e3)
		for _, d := range r.disk {
			if d.Name == "disk.read" {
				readUS = append(readUS, d.us())
			} else {
				writeUS = append(writeUS, d.us())
			}
		}
		if r.client.Op == "query" {
			queries++
			respBytes = append(respBytes, float64(r.handler.Bytes))
			for _, op := range r.ops {
				pages += op.Reads + op.Hits
				reads += op.Reads
				hits += op.Hits
				if op.Ratio > 0 {
					ratios = append(ratios, op.Ratio)
				}
			}
			continue
		}
		updates++
		if r.client.Op == "insert" {
			inserts++
		}
		if stalled {
			stalls++
		}
		for _, op := range r.ops {
			updateWrites += op.Writes
		}
	}

	var shardSelf, fanout, maxShare []float64
	var pathPages, listPages, useful, wasteful int
	for _, d := range direct {
		var ops []interval
		var longest, total int64
		if r := by[d.call.Req]; r != nil {
			for _, op := range r.ops {
				ops = append(ops, op.interval())
				total += op.End - op.Start
				longest = max(longest, op.End-op.Start)
			}
		}
		shardSelf = append(shardSelf, float64(selfTime(d.call.interval(), ops))/1e3)
		fanout = append(fanout, float64(len(d.profs)))
		if total > 0 {
			maxShare = append(maxShare, float64(longest)/float64(total))
		}
		for _, p := range d.profs {
			pathPages += p.PathPages
			listPages += p.ListPages
			useful += p.UsefulIOs
			wasteful += p.WastefulIOs
		}
	}

	nd := len(direct)
	c, cs, ss, ps, d := mean(clientUS), mean(clientSelf), mean(serverSelf), mean(pcSelf), mean(diskUS)
	breakdown := fmt.Sprintf("# breakdown %s: client.request %.1f us = client.self %.1f + server.self %.1f + pathcache.self %.1f + disk %.1f + residual %.1f (mean of %d requests)",
		pl.spec.name, c, cs, ss, ps, d, c-cs-ss-ps-d, len(clientUS))
	return []metric{
		pct("client.self_us", clientSelf, 50),
		pct("server.handler_p50_us", handlerUS, 50),
		pct("server.handler_p99_us", handlerUS, 99),
		pct("server.self_us", serverSelf, 50),
		{name: "server.response_bytes", unit: "bytes", value: mean(respBytes), samples: len(respBytes)},
		pct("pathcache.op_p50_us", opUS, 50),
		pct("pathcache.op_p99_us", opUS, 99),
		pct("pathcache.self_us", pcSelf, 50),
		{name: "pathcache.pages_per_op", unit: "count", value: ratio(pages, queries), samples: int(queries)},
		{name: "pathcache.bound_ratio_mean", unit: "ratio", value: mean(ratios), samples: len(ratios)},
		{name: "pathcache.bound_ratio_max", unit: "ratio", value: maxOf(ratios), samples: len(ratios)},
		{name: "pathcache.path_pages_per_op", unit: "count", value: ratio(int64(pathPages), int64(nd)), samples: nd},
		{name: "pathcache.list_pages_per_op", unit: "count", value: ratio(int64(listPages), int64(nd)), samples: nd},
		{name: "pathcache.useful_io_frac", unit: "ratio", value: ratio(int64(useful), int64(useful+wasteful)), samples: nd},
		{name: "shard.fanout", unit: "count", value: mean(fanout), samples: nd},
		pct("shard.self_us", shardSelf, 50),
		{name: "shard.max_share", unit: "ratio", value: mean(maxShare), samples: len(maxShare)},
		pct("disk.read_p50_us", readUS, 50),
		pct("disk.read_p99_us", readUS, 99),
		{name: "disk.busy_frac", unit: "ratio", value: ratio(diskNS, opNS), samples: len(opUS)},
		{name: "disk.hit_rate", unit: "ratio", value: ratio(hits, reads+hits), samples: int(queries)},
		{name: "disk.writes_per_update", unit: "count", value: ratio(updateWrites, int64(updates)), samples: updates},
		printOnly(metric{name: "disk.write_us", unit: "us", value: mean(writeUS), samples: len(writeUS)}),
		{name: "lsm.flushes", unit: "count", value: float64(len(flushUS)), samples: updates},
		{name: "lsm.compactions", unit: "count", value: float64(len(compactUS)), samples: updates},
		{name: "lsm.levels", unit: "count", value: float64(levels), samples: 1},
		printOnly(pct("lsm.flush_p50_us", flushUS, 50)),
		printOnly(metric{name: "lsm.flush_max_us", unit: "us", value: maxOf(flushUS), samples: len(flushUS)}),
		printOnly(pct("lsm.compact_p50_us", compactUS, 50)),
		printOnly(metric{name: "lsm.compact_max_us", unit: "us", value: maxOf(compactUS), samples: len(compactUS)}),
		{name: "lsm.stall_frac", unit: "ratio", value: ratio(int64(stalls), int64(updates)), samples: updates},
		{name: "lsm.write_amp", unit: "ratio", value: ratio(updateWrites*pageSize, int64(inserts*recordBytes)), samples: inserts},
	}, breakdown
}

// pct is a percentile of span times in microseconds, marked unsupported
// when fewer than minTail samples lie beyond it.
func pct(name string, vals []float64, p float64) metric {
	v, ok := percentile(sortedCopy(vals), p)
	return metric{name: name, unit: "us", value: v, samples: len(vals), unsupported: !ok}
}

// printOnly keeps m out of the result object: the write path's few
// maintenance spans, and a write time no workload but lsm-mixed has.
func printOnly(m metric) metric {
	m.printOnly = true
	return m
}

// ratio is num/den, 0 when the layer did no such work (den 0).
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func maxOf(vals []float64) float64 {
	var m float64
	for _, v := range vals {
		m = max(m, v)
	}
	return m
}

// jsonLayers drops the print-only metrics.
func jsonLayers(ms []metric) []metric {
	var out []metric
	for _, m := range ms {
		if !m.printOnly {
			out = append(out, m)
		}
	}
	return out
}
