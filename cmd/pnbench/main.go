// Command pnbench regenerates the paper's figures and the repo's
// supplementary experiments.
//
// Usage:
//
//	pnbench -figure 5                 # one figure, default profile
//	pnbench -figure all -profile paper
//	pnbench -figure 3 -csv out/       # also write CSV files
//	pnbench -figure island -json bench.json
//	pnbench -figure ablation -profile fast -csv out/   # the design-choice study
//
// Profiles: fast (seconds), default (a minute or two), paper (the
// published scale: 10,000 tasks, 50 processors, 20 repeats, 1000
// generations).
//
// -json writes every rendered table as machine-readable records (name,
// profile, seed, column headers, data rows, wall-clock) so result
// files can accumulate across runs — including the island experiment's
// island-vs-sequential numbers and the ablation experiment's
// design-choice rows. A CSV or JSON file that cannot be
// written in full fails the run with a non-zero exit status.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"pnsched/internal/experiments"
)

func main() {
	var (
		figure  = flag.String("figure", "all", "paper figure (3-11), supplementary experiment ("+strings.Join(experiments.Supplementary, ", ")+"), 'all' figures, or 'everything'")
		profile = flag.String("profile", "default", "experiment scale: fast, default, or paper")
		seed    = flag.Uint64("seed", 0, "override the profile's base seed")
		workers = flag.Int("workers", 0, "parallel workers (0: all CPUs)")
		csvDir  = flag.String("csv", "", "directory to write per-figure CSV files into")
		jsonOut = flag.String("json", "", "file to write machine-readable results into")
	)
	flag.Parse()

	// Validate everything before any work: a typo must not cost a
	// partially completed multi-minute run.
	p, err := profileByName(*profile)
	if err != nil {
		fatal(err)
	}
	names, err := resolveFigures(*figure)
	if err != nil {
		fatal(err)
	}
	if *seed != 0 {
		p.Seed = *seed
	}
	if *workers != 0 {
		p.Workers = *workers
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fatal(err)
		}
	}

	report := jsonReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Profile:     p.Name,
		Seed:        p.Seed,
	}
	for _, name := range names {
		start := time.Now()
		fig, err := experiments.RunNamed(name, p)
		if err != nil {
			fatal(err)
		}
		elapsed := time.Since(start)

		experiments.RenderFigure(fig, os.Stdout)
		if *csvDir != "" {
			if err := writeCSV(filepath.Join(*csvDir, figureLabel(name)+".csv"), fig); err != nil {
				fatal(err)
			}
		}
		fmt.Printf("\n[%s done in %v]\n\n", name, elapsed.Round(time.Millisecond))

		tbl := fig.Table()
		report.Results = append(report.Results, jsonFigure{
			Name:      name,
			Title:     tbl.Title,
			Header:    tbl.Header,
			Rows:      tbl.Rows,
			ElapsedMS: elapsed.Milliseconds(),
		})
	}

	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, report); err != nil {
			fatal(err)
		}
	}
}

// jsonReport is the schema of a -json results file: one run of pnbench
// with one record per rendered experiment.
type jsonReport struct {
	GeneratedAt string       `json:"generated_at"`
	Profile     string       `json:"profile"`
	Seed        uint64       `json:"seed"`
	Results     []jsonFigure `json:"results"`
}

// jsonFigure is one experiment's table plus its wall-clock cost.
type jsonFigure struct {
	Name      string     `json:"name"`
	Title     string     `json:"title"`
	Header    []string   `json:"header"`
	Rows      [][]string `json:"rows"`
	ElapsedMS int64      `json:"elapsed_ms"`
}

func writeJSON(path string, report jsonReport) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeCSV writes fig's table to path as CSV. The table is rendered in
// memory first, so a failed write (a full disk) is an error rather than
// a silently truncated file.
func writeCSV(path string, fig experiments.Figure) error {
	var buf bytes.Buffer
	if err := fig.Table().CSV(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// resolveFigures expands the -figure value into experiment names and
// rejects unknown ones up front, listing what is valid.
func resolveFigures(figure string) ([]string, error) {
	var everything []string
	for _, fig := range experiments.Figures {
		everything = append(everything, strconv.Itoa(fig))
	}
	everything = append(everything, experiments.Supplementary...)
	switch figure {
	case "all":
		return everything[:len(experiments.Figures)], nil
	case "everything":
		return everything, nil
	}
	if !experiments.Known(figure) {
		return nil, fmt.Errorf("unknown figure %q (valid: %s, all, everything)", figure, strings.Join(everything, ", "))
	}
	return []string{figure}, nil
}

// figureLabel names the CSV file for an experiment: numeric figures
// get a "fig" prefix.
func figureLabel(name string) string {
	if _, err := strconv.Atoi(name); err == nil {
		return "fig" + name
	}
	return name
}

func profileByName(name string) (experiments.Profile, error) {
	switch name {
	case "fast":
		return experiments.Fast(), nil
	case "default":
		return experiments.Default(), nil
	case "paper":
		return experiments.Paper(), nil
	default:
		return experiments.Profile{}, fmt.Errorf("unknown profile %q (want fast, default, or paper)", name)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pnbench:", err)
	os.Exit(1)
}
