package retired

func oracle() { retiredName() }
