package main

import "fixture"

func main() { println(fixture.Run()) }
