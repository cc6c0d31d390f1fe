package retired

func defined() {
	retiredName()
}

func defined() {}
