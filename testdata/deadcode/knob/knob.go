// Package knob is the fixture of the root TestDeadcodeFieldFixture: its
// Config has a field main writes in a keyed literal, one main writes by
// assignment, one only Use's default writes and one nothing writes.
package knob

type Config struct {
	Written   int
	Assigned  int
	Defaulted int
	Unwritten int
}

// Use fills Config's default and returns the sum of its fields.
func Use(c Config) int {
	if c.Defaulted == 0 {
		c.Defaulted = 1
	}
	return c.Written + c.Assigned + c.Defaulted + c.Unwritten
}
