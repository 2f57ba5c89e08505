//go:build obsslowdown

package main

// Built with -tags obsslowdown, BenchmarkObsOverhead stretches every
// obs-on run by 3% of its own time, one point above the gate's bound:
//
//	go test -tags obsslowdown -run '^$' -bench '^BenchmarkObsOverhead$' -benchtime 1x .
//
// must fail, which shows the gate can see a slowdown of that size.
func init() { obsOnSlowdown = 0.03 }
