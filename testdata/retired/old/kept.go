package old

func retiredName() {}
