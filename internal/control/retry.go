package control

import "dblayout/internal/seed"

// Discriminators separating the controller's derived seed streams under
// seed.StreamControl: re-advise solver seeds and retry-backoff jitter must
// never draw from the same sequence.
const (
	streamAdvise int64 = 1
	streamJitter int64 = 2
)

// backoffDelay computes the deterministic retry backoff, in the policy's
// ticks, before the given attempt runs: exponential in the attempt number
// (base, 2×base, 4×base, ...) capped at MaxBackoff, plus a seeded jitter in
// [0, base] derived from the (epoch, attempt) identity so simultaneous
// controllers sharing a base seed do not retry in lockstep. Attempt 2 is the
// first retry.
func (r *Runner) backoffDelay(attempt int) int {
	p := r.cfg.Policy
	d := p.BaseBackoff
	for i := 2; i < attempt && d < p.MaxBackoff; i++ {
		d *= 2
	}
	if d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	j := seed.Sub(r.cfg.Seed, seed.StreamControl, streamJitter, int64(r.epoch), int64(attempt))
	return d + int(uint64(j)%uint64(p.BaseBackoff+1))
}

// adviseSeed derives the solver seed for one (epoch, attempt) re-advise, so
// no two solves in a controller's lifetime replay the same perturbation
// sequence and a crash-restarted attempt re-derives the same one.
func (c *Controller) adviseSeed(epoch, attempt int) int64 {
	return seed.Sub(c.cfg.Seed, seed.StreamControl, streamAdvise, int64(epoch), int64(attempt))
}
