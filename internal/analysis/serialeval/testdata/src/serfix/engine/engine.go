// Package engine is the serialeval analyzer fixture: call sites of the
// oracle in and out of the allowed contexts.
package engine

import "mpcgs/internal/felsen"

type chain struct {
	eval   *felsen.Evaluator
	serial bool
	logLik float64
}

func (c *chain) step(t *felsen.Tree) {
	c.logLik = c.eval.LogLikelihoodSerial(t) // want `LogLikelihoodSerial outside a reference-evaluator path`
}

func (c *chain) stepGuarded(t *felsen.Tree) {
	if c.serial {
		c.logLik = c.eval.LogLikelihoodSerial(t) // serial-mode guard: allowed
	} else {
		c.logLik = c.eval.Rebase(t)
	}
}

func serialMode(c *chain) bool { return c.serial }

func (c *chain) stepGuardedIndirect(t *felsen.Tree) {
	if serialMode(c) {
		c.logLik = c.eval.LogLikelihoodSerial(t) // guard names the serial flag: allowed
	}
}

// RunSerialOracle is an oracle entry point by name: allowed.
func (c *chain) RunSerialOracle(t *felsen.Tree) float64 {
	return c.eval.LogLikelihoodSerial(t)
}

// BenchmarkOracle mimics a benchmark harness: allowed.
func BenchmarkOracle(c *chain, t *felsen.Tree) float64 {
	return c.eval.LogLikelihoodSerial(t)
}

func (c *chain) unguardedHelper(t *felsen.Tree) float64 {
	return c.eval.LogLikelihoodSerial(t) // want `LogLikelihoodSerial outside a reference-evaluator path`
}
