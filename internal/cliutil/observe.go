package cliutil

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// Observing, when non-nil, receives each -observe listener's bound
// address. Test seam: lets a test start a run on 127.0.0.1:0 and reach it.
var Observing func(addr string)

// ServeObserve is the -observe endpoint shared by the commands: the pprof
// handlers, plus metrics at /metricsz when non-nil, on a listener of its
// own so profiling never competes with serving traffic. The mux belongs to
// the call, so a process may serve it once per run; stop closes the
// listener, returns once the server goroutine has exited, and must be
// called when the run ends.
func ServeObserve(addr string, metrics http.Handler) (stop func(), err error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	served := "pprof on /debug/pprof"
	if metrics != nil {
		mux.Handle("GET /metricsz", metrics)
		served += ", metrics on /metricsz"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("-observe %s: %w", addr, err)
	}
	srv := &http.Server{Handler: mux}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // always ErrServerClosed once stop runs
	}()
	fmt.Printf("observe: http://%s (%s)\n", ln.Addr(), served)
	if Observing != nil {
		Observing(ln.Addr().String())
	}
	return func() {
		_ = srv.Close() // closes the listener and every connection
		<-done
	}, nil
}
