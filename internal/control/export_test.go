package control

// Test-only access for the external control tests, which drive and read
// the controller's telemetry directly.

// Telemetry returns the registry the serving plane publishes into.
func (c *Controller) Telemetry() *Telemetry { return c.tel }

// Denied reports how many admission decisions were denials.
func (t *Telemetry) Denied() int64 { return t.denied.Load() }
