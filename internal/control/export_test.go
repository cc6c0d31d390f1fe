package control

import (
	"fmt"

	"quhe/internal/serve"
)

// Test-only access for the external control tests, which drive and read
// the controller's telemetry directly.

// Telemetry returns the registry the serving plane publishes into.
func (c *Controller) Telemetry() *Telemetry { return c.tel }

// Store returns the session store bound by BindServe (nil before).
func (t *Telemetry) Store() *serve.Store { return t.store.Load() }

// SessionOnRoute returns the first session ID of the form name-k, k = 0,
// 1, …, that a controller over routes routes places on route r, so tests
// can put sessions on chosen routes.
func SessionOnRoute(routes, r int, name string) string {
	for k := 0; ; k++ {
		if id := fmt.Sprintf("%s-%d", name, k); routeOf(id, routes) == r {
			return id
		}
	}
}
