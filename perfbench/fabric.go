// The fabric rig: a coordinator served over loopback HTTP and one
// worker running its lease loop in the same process.
package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"geoblock"
	"geoblock/internal/fabric"
	"geoblock/internal/telemetry"
)

type rig struct {
	coord *geoblock.FabricCoordinator
	srv   *httptest.Server
	tr    *http.Transport
	// ctx is cancelled when the worker fails, so a study waiting on a
	// phase no worker will finish returns with Err set instead of
	// hanging.
	ctx    context.Context
	cancel context.CancelFunc
	done   chan error
}

// startRig starts a coordinator for wcfg's study and one worker leasing
// from it, with p timing the protocol at its seams. The worker's Sleep
// hook really sleeps, as cmd/scanworker's does.
func startRig(wcfg geoblock.WorldConfig, p *probe) (*rig, error) {
	p.coordMetrics = telemetry.New()
	coord := geoblock.NewFabric(geoblock.FabricOptions{Study: geoblock.FabricStudySpec{World: wcfg}, Metrics: p.coordMetrics})
	srv := httptest.NewServer(p.handler(coord.Handler()))
	tr := &http.Transport{}
	ctx, cancel := context.WithCancel(context.Background())
	w, err := geoblock.NewFabricWorker(ctx, geoblock.FabricWorkerOptions{
		Coordinator: srv.URL,
		Name:        "perfbench-1",
		Client:      &http.Client{Transport: probeTransport{next: tr, p: p}},
		Sleep:       p.sleep,
	})
	if err != nil {
		cancel()
		srv.Close()
		return nil, err
	}
	r := &rig{coord: coord, srv: srv, tr: tr, ctx: ctx, cancel: cancel, done: make(chan error, 1)}
	go func() {
		err := w.Run(ctx)
		if err != nil {
			cancel()
		}
		r.done <- err
	}()
	return r, nil
}

// finish ends the study, waits for the worker's lease loop to return,
// and shuts the server down.
func (r *rig) finish() error {
	r.coord.FinishStudy()
	err := <-r.done
	r.cancel()
	r.tr.CloseIdleConnections()
	r.srv.Close()
	return err
}

// probe times the fabric protocol at its public seams: the worker's
// HTTP client, the coordinator's handler, and the worker's Sleep hook.
type probe struct {
	leaseNS, leaseN                      atomic.Int64
	completeNS, completeN, completeBytes atomic.Int64
	handlerNS, handlerN                  atomic.Int64
	parkedNS, waits                      atomic.Int64
	coordMetrics                         *telemetry.Registry
}

type probeTransport struct {
	next http.RoundTripper
	p    *probe
}

func (t probeTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := t.next.RoundTrip(req)
	d := int64(time.Since(t0))
	switch req.URL.Path {
	case fabric.PathLease:
		t.p.leaseNS.Add(d)
		t.p.leaseN.Add(1)
	case fabric.PathComplete:
		t.p.completeNS.Add(d)
		t.p.completeN.Add(1)
		t.p.completeBytes.Add(req.ContentLength)
	}
	return resp, err
}

func (p *probe) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		next.ServeHTTP(w, r)
		p.handlerNS.Add(int64(time.Since(t0)))
		p.handlerN.Add(1)
	})
}

func (p *probe) sleep(d time.Duration) {
	t0 := time.Now()
	time.Sleep(d)
	p.parkedNS.Add(int64(time.Since(t0)))
	p.waits.Add(1)
}
