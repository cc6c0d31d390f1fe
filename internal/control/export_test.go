package control

import "quhe/internal/serve"

// Test-only access for the external control tests, which drive and read
// the controller's telemetry directly.

// Telemetry returns the registry the serving plane publishes into.
func (c *Controller) Telemetry() *Telemetry { return c.tel }

// Store returns the session store bound by BindServe (nil before).
func (t *Telemetry) Store() *serve.Store { return t.store.Load() }
