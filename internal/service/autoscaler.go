package service

// Telemetry-driven worker-pool autoscaler: sizes the rank pool from the
// signals the server already exports — queue depth (svc.queue.depth),
// in-flight run count, and the pool gauges — instead of a side channel.
// Policy, deliberately asymmetric:
//
//   - Scale UP eagerly: when queued depth exceeds scaleUpDepthPerWorker
//     × workers, double the pool (capped at Max). A burst is cheapest to
//     absorb immediately, and a new worker needs no handover: it starts
//     by claiming from the queue.
//   - Scale DOWN cautiously (hysteresis): only after scaleDownIdleTicks
//     consecutive idle observations (empty queue AND zero running jobs),
//     halve the pool (floored at Min). One busy tick resets the streak,
//     so oscillating load cannot flap the pool.
//   - A cooldown of two observation periods between any two scaling
//     events bounds the rate of epoch churn regardless of how noisy the
//     signals get.
//
// Retired workers finish their current job before exiting (see
// Server.Resize), so a scale-down can never lose work.

import (
	"time"
)

// AutoscalerConfig shapes StartAutoscaler: the pool bounds, which are
// deployment settings. Zero values take defaults.
type AutoscalerConfig struct {
	Min int // pool floor; default 1
	Max int // pool ceiling; default 8
}

const (
	// scaleUpDepthPerWorker is the queued-jobs-per-worker threshold that
	// triggers a scale-up.
	scaleUpDepthPerWorker = 2
	// autoscaleInterval is the observation period.
	autoscaleInterval = 10 * time.Millisecond
	// scaleDownIdleTicks is how many consecutive idle observations
	// precede a scale-down.
	scaleDownIdleTicks = 5
)

func (c AutoscalerConfig) withDefaults() AutoscalerConfig {
	if c.Min <= 0 {
		c.Min = 1
	}
	if c.Max <= 0 {
		c.Max = 8
	}
	if c.Max < c.Min {
		c.Max = c.Min
	}
	return c
}

// StartAutoscaler runs the scaling loop in a background goroutine until
// the server's background channel closes (Drain/Kill/Close). Call after
// StartWorkers.
func (s *Server) StartAutoscaler(cfg AutoscalerConfig) {
	cfg = cfg.withDefaults()
	go s.autoscaleLoop(cfg)
}

func (s *Server) autoscaleLoop(cfg AutoscalerConfig) {
	t := time.NewTicker(autoscaleInterval)
	defer t.Stop()
	idleTicks := 0
	var lastEvent time.Time
	for {
		select {
		case <-s.stopBg:
			return
		case now := <-t.C:
			if s.killed.Load() {
				return
			}
			depth := s.queue.Len()
			running := s.running.Load()
			workers := s.WorkerCount()

			if depth == 0 && running == 0 {
				idleTicks++
			} else {
				idleTicks = 0
			}
			if now.Sub(lastEvent) < 2*autoscaleInterval {
				continue
			}
			switch {
			case depth > scaleUpDepthPerWorker*workers && workers < cfg.Max:
				target := workers * 2
				if target > cfg.Max {
					target = cfg.Max
				}
				s.Resize(target)
				lastEvent = now
				idleTicks = 0
			case idleTicks >= scaleDownIdleTicks && workers > cfg.Min:
				target := workers / 2
				if target < cfg.Min {
					target = cfg.Min
				}
				s.Resize(target)
				lastEvent = now
				idleTicks = 0
			}
		}
	}
}
