// Package notify turns file-system change events into wake-ups for code
// that would otherwise find a change only by polling for it: the model
// registry's directory scan and the stream tail's re-read of a growing
// file. A wake says only that something may have changed; the caller
// looks again and decides. Callers keep their poll as the bound on
// staleness, so a lost or unavailable notification costs latency, never
// correctness.
package notify
