package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"qpiad/internal/afd"
	"qpiad/internal/core"
	"qpiad/internal/datagen"
	"qpiad/internal/eval"
	"qpiad/internal/faults"
	"qpiad/internal/httpapi"
	"qpiad/internal/planner"
	"qpiad/internal/source"
)

// The qpiad-server defaults: a 20 000-car world, 10% incomplete, mined
// from a 10% training sample, K = 10 rewrites issued 4 at a time.
const (
	worldN      = 20000
	worldSeed   = 42
	incomplete  = 0.10
	trainFrac   = 0.10
	defaultK    = 10
	parallel    = 4
	minSupport  = 5
	schedFactor = 2 // qpiad-server -planner sizes its scheduler at 2×parallel
)

// system is one running benchmark target: the world with its hidden
// ground truth, the mediator and its HTTP server on a loopback listener.
type system struct {
	world *eval.World
	med   *core.Mediator
	api   *httpapi.Server
	srv   *http.Server
	url   string
	done  chan error
}

func worldConfig(w *workload) eval.WorldConfig {
	return eval.WorldConfig{
		Name:           sourceName,
		Dataset:        datagen.Cars,
		N:              worldN,
		IncompleteFrac: incomplete,
		TrainFrac:      trainFrac,
		Seed:           worldSeed,
		Caps:           source.Capabilities{Latency: w.latency},
		Knowledge:      core.KnowledgeConfig{AFD: afd.Config{MinSupport: minSupport}},
	}
}

func mediatorConfig(w *workload) core.Config {
	cfg := core.Config{Alpha: 0, K: defaultK, Parallel: parallel, CacheSize: w.cacheSize}
	if w.planner {
		cfg.Planner = &planner.Config{Scheduler: planner.NewScheduler(schedFactor * parallel)}
	}
	return cfg
}

// faultSeed seeds the source's latency jitter, qpiad-server's default
// -fault-seed. It is fixed, not the run's seed, so every query key keeps
// its latency from run to run.
const faultSeed = 1

// startSystem builds the world, the mediator and the server, and returns
// once the listener answers /healthz.
func startSystem(w *workload) (*system, error) {
	world, err := eval.NewWorld(worldConfig(w))
	if err != nil {
		return nil, fmt.Errorf("building world: %w", err)
	}
	// Like qpiad-server, keep only the served relation, the sample and the
	// knowledge alive; the judge needs the hidden values, not the complete
	// and incomplete copies the world was made from.
	world.GD, world.ED = nil, nil
	// The world's own mediator always runs uncached; the benchmark serves
	// through its own, configured like qpiad-server.
	med := core.New(mediatorConfig(w))
	med.Register(world.Src, world.Know)
	if w.jitter > 0 {
		world.Src.SetFaults(faults.New(faults.Profile{Seed: faultSeed, LatencyJitter: w.jitter}))
	}
	api := httpapi.New(med)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s := &system{
		world: world,
		med:   med,
		api:   api,
		srv:   &http.Server{Handler: api, ReadHeaderTimeout: 5 * time.Second},
		url:   "http://" + ln.Addr().String(),
		done:  make(chan error, 1),
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	if err := s.waitHealthy(); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *system) waitHealthy() error {
	client := &http.Client{Transport: &http.Transport{Proxy: nil}, Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()
	resp, err := client.Get(s.url + "/healthz")
	if err != nil {
		return fmt.Errorf("health check: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("health check: status %d", resp.StatusCode)
	}
	return nil
}

// stop closes the server and waits for its serve loop to end.
func (s *system) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		s.srv.Close()
	}
	if err := <-s.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Printf("# server stopped with: %v\n", err)
	}
}

// setupSpans replays the world build step by step, the way eval.NewWorld
// runs it, to time data generation and knowledge mining apart.
func setupSpans(w *workload) (datagenS, mineS float64, err error) {
	cfg := worldConfig(w)
	t0 := time.Now()
	gd := cfg.Dataset(cfg.N, cfg.Seed)
	ed, _ := datagen.MakeIncomplete(gd, cfg.IncompleteFrac, cfg.Seed+1)
	train, test, err := datagen.Split(ed, cfg.TrainFrac, cfg.Seed+2)
	if err != nil {
		return 0, 0, fmt.Errorf("splitting world: %w", err)
	}
	t1 := time.Now()
	ratio := float64(test.Len()) / float64(train.Len())
	if _, err := core.MineKnowledge(cfg.Name, train, ratio, train.IncompleteFraction(), cfg.Knowledge); err != nil {
		return 0, 0, fmt.Errorf("mining knowledge: %w", err)
	}
	t2 := time.Now()
	return t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), nil
}
