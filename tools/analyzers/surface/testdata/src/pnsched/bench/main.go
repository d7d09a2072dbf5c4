package main

import "pnsched/internal/lib"

func main() { lib.UsedByBench() }
