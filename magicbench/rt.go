package main

import (
	"runtime"
	"runtime/metrics"
)

// rtSnap is a Go runtime reading taken at a window boundary.
type rtSnap struct {
	mallocs, bytes  uint64
	gcCPU, totalCPU float64
}

func rtSample() rtSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	out := rtSnap{mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.totalCPU = s[1].Value.Float64()
	}
	return out
}

// rtMetrics sets the runtime.* metrics of a window of ops operations.
func rtMetrics(res *result, a, b rtSnap, ops int) {
	if ops == 0 {
		return
	}
	res.set("runtime.allocs_per_op", float64(b.mallocs-a.mallocs)/float64(ops))
	res.set("runtime.bytes_per_op", float64(b.bytes-a.bytes)/float64(ops))
	res.set("runtime.gc_cpu_frac", ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU))
}
