package main

import (
	"flag"
	"fmt"

	"pnsched"
	"pnsched/internal/lib"
)

func main() {
	cfg := lib.RunConfig{Steps: 2}
	flag.IntVar(&cfg.Depth, "depth", 1, "")
	flag.Parse()
	var c lib.Counter
	c.Inc()
	fmt.Println(lib.Run(cfg), lib.Total([]lib.Shape{lib.Square{Side: 2}}), lib.UsedByCmd().Hits, lib.Wire{})
	pnsched.Start(pnsched.WithWidth(3))
}
