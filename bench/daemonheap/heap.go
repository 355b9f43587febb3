//go:build benchheap

// This file is not part of the harness. bench/run.sh compiles it into
// cmd/dgserved, as if it were a file of that package, with
// `go build -overlay` and `-tags benchheap`; the daemon's sources are not
// changed. It lets the harness read the daemon's live heap at a fixed
// point: on SIGUSR1 the daemon collects twice and writes its HeapAlloc, in
// bytes, to the file BENCH_HEAP_FILE names.
package main

import (
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"syscall"
)

func init() {
	path := os.Getenv("BENCH_HEAP_FILE")
	if path == "" {
		return
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGUSR1)
	// The goroutine lives as long as the daemon.
	go func() {
		for range sig {
			runtime.GC()
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			// A failed write leaves no file, and the harness reports the
			// missing answer as its error.
			tmp := path + ".tmp"
			if os.WriteFile(tmp, []byte(strconv.FormatUint(ms.HeapAlloc, 10)), 0o644) == nil {
				_ = os.Rename(tmp, path)
			}
		}
	}()
}
