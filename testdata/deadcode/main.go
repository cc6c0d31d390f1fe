// Command deadcode is the fixture of the root TestDeadcodeFixture: main
// calls one function, and of the other two one is never called (its only
// reference is to itself) and one is called only by the never-called one.
package main

func main() { called() }

func called() {}

func neverCalled(n int) {
	if n > 0 {
		neverCalled(n - 1)
	}
	calledOnlyByDead()
}

func calledOnlyByDead() {}
