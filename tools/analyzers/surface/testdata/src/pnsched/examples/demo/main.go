package main

import "pnsched/internal/lib"

func main() { lib.UsedByExample() }
