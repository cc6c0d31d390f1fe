// Command deadcode is the fixture of the root TestDeadcodeFixture: main
// calls one function, reads a field that shares its name with a function
// nothing calls, and calls two methods only through interfaces, one named
// and one anonymous. Of the other functions, one is never called (its only
// reference is to itself) and one is called only by the never-called one.
// It also writes two of the fields of knob.Config, one in a keyed literal
// and one by assignment.
package main

import "deadcode/knob"

type box struct{ size int }

type namer interface{ name() string }

type named struct{}

func (named) name() string { return "named" }

type tagged struct{}

func (tagged) tag() {}

func main() {
	called()
	cfg := knob.Config{Written: 1}
	cfg.Assigned = 2
	_ = knob.Use(cfg)
	_ = box{size: 1}.size
	var n namer = named{}
	_ = n.name()
	var v any = tagged{}
	if t, ok := v.(interface{ tag() }); ok {
		t.tag()
	}
}

func called() {}

func size() int { return 0 }

func neverCalled(n int) {
	if n > 0 {
		neverCalled(n - 1)
	}
	calledOnlyByDead()
}

func calledOnlyByDead() {}
