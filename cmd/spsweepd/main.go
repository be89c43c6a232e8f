// Command spsweepd serves sweep matrices to workers over HTTP: clients
// submit matrices with `spsweep run -server <url>`, workers lease jobs —
// either the daemon's own in-process pool (-workers) or remote
// `spsweep work -server <url>` processes — and completed cells land in
// the shared resumable artifact store, so restarting the daemon (or
// pointing a second one at the same -dir) recomputes nothing.
//
// Usage:
//
//	spsweepd [-addr 127.0.0.1:8437] [-addr-file path] [-dir results/sweep]
//	         [-workers N] [-lease-ttl 1m] [-retries 2] [-timeout 0]
//	         [-backoff 1s] [-backoff-seed 0] [-poll 200ms] [-quiet]
//	         [-token T] [-insecure] [-max-body 8388608]
//
// -addr-file, written after the listener binds, carries the actual
// address (useful with ":0" for tests and scripts). See internal/sweepd
// for the API and the determinism argument.
//
// Security: -token (default $SPSWEEPD_TOKEN) requires every API request
// except /healthz to carry "Authorization: Bearer <token>"; clients pass
// the matching -token to spsweep's server commands. Binding a non-loopback
// address without a token is refused unless -insecure explicitly accepts
// an open daemon. -max-body caps request bodies (oversized ones get 413).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"spcoh/internal/sweep"
	"spcoh/internal/sweepd"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "spsweepd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("spsweepd", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8437", "listen address (use :0 for an ephemeral port)")
	addrFile := fs.String("addr-file", "", "write the bound address to this file once listening")
	dir := fs.String("dir", "results/sweep", "shared artifact store directory")
	workers := fs.Int("workers", 0, "in-process worker pool size (0 = remote workers only)")
	leaseTTL := fs.Duration("lease-ttl", time.Minute, "job lease lifetime; heartbeats extend it")
	retries := fs.Int("retries", 2, "additional attempts per job after a failed one")
	timeout := fs.Duration("timeout", 0, "per-attempt wall-clock timeout for local workers (0 = none)")
	backoff := fs.Duration("backoff", time.Second, "base requeue delay after a failed attempt, jittered (0 = none)")
	backoffSeed := fs.Int64("backoff-seed", 0, "seed for the requeue jitter")
	poll := fs.Duration("poll", 200*time.Millisecond, "local pool idle lease cadence")
	quiet := fs.Bool("quiet", false, "suppress per-event log lines")
	token := fs.String("token", os.Getenv("SPSWEEPD_TOKEN"),
		"shared bearer token required on every API request (default $SPSWEEPD_TOKEN; empty = no auth)")
	insecure := fs.Bool("insecure", false,
		"allow binding a non-loopback address without a token")
	maxBody := fs.Int64("max-body", 8<<20, "request body size cap in bytes")
	fs.Parse(args)

	if *token == "" && !*insecure && !loopbackAddr(*addr) {
		return fmt.Errorf("refusing to serve %q without a token: every host that can reach "+
			"this address can submit and lease jobs; set -token (or $SPSWEEPD_TOKEN), "+
			"bind a loopback address, or pass -insecure to accept an open daemon", *addr)
	}

	store, err := sweep.Open(*dir)
	if err != nil {
		return err
	}
	logf := func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, "spsweepd: "+format+"\n", a...)
	}
	srv, err := sweepd.New(sweepd.Options{
		Store:        store,
		LeaseTTL:     *leaseTTL,
		Retries:      *retries,
		Backoff:      *backoff,
		BackoffSeed:  *backoffSeed,
		Timeout:      *timeout,
		LocalWorkers: *workers,
		Poll:         *poll,
		Token:        *token,
		MaxBodyBytes: *maxBody,
		Log: func(format string, a ...any) {
			if !*quiet {
				logf(format, a...)
			}
		},
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			ln.Close()
			return fmt.Errorf("write -addr-file: %w", err)
		}
	}
	logf("listening on %s (store %s, %d local workers, lease TTL %s)", bound, *dir, *workers, *leaseTTL)

	srv.Start()
	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		logf("shutting down")
	case err := <-serveErr:
		srv.Close()
		return err
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		logf("shutdown: %v", err)
	}
	srv.Close()
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logf("stopped; completed cells are checkpointed in %s", *dir)
	return nil
}

// loopbackAddr reports whether a listen address cannot be reached from
// another host: an explicit loopback IP or "localhost". An empty host
// (":8437") binds every interface and is NOT loopback.
func loopbackAddr(addr string) bool {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		// Unparseable addresses fail at Listen with a better error; don't
		// block them here.
		return true
	}
	if host == "localhost" {
		return true
	}
	ip := net.ParseIP(host)
	return ip != nil && ip.IsLoopback()
}
