package main

import "fixture/internal/lib"

func main() { println(lib.BenchOnly()) }
