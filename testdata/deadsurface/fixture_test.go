package fixture

func probed() int { return Probe() }
