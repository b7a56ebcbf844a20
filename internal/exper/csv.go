package exper

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// WriteCSV regenerates the experiments and writes plot-ready CSV files
// (table1.csv, table2.csv, fig1.csv, fig2.csv, fig4.csv, fig5.csv,
// fig6.csv) into dir, creating it if needed. Growth figures use
// cfg.Budget executions per strategy.
func WriteCSV(dir string, cfg Config) error {
	cfg.fill()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}

	t1, err := Table1Data(cfg)
	if err != nil {
		return err
	}
	rows := [][]string{{"program", "loc", "threads", "max_k", "max_b", "max_c", "sites", "redundant_pct", "time_ms"}}
	for _, r := range t1 {
		rows = append(rows, []string{r.Name, itoa(r.LOC), itoa(r.Threads), itoa(r.MaxK), itoa(r.MaxB), itoa(r.MaxC),
			countCell(r.Sites), pctCell(r.RedundantPct), itoa(int(r.Time.Milliseconds()))})
	}
	if err := writeCSVFile(dir, "table1.csv", rows); err != nil {
		return err
	}

	t2, err := Table2Data(cfg)
	if err != nil {
		return err
	}
	rows = [][]string{{"program", "bugs", "c0", "c1", "c2", "c3", "psites",
		"t0_us", "t1_us", "t2_us", "t3_us", "time_ms"}}
	for _, r := range t2 {
		rows = append(rows, []string{r.Name, itoa(r.Total),
			itoa(r.AtBound[0]), itoa(r.AtBound[1]), itoa(r.AtBound[2]), itoa(r.AtBound[3]),
			countCell(r.PSites),
			itoa(int(r.BoundTime[0].Microseconds())), itoa(int(r.BoundTime[1].Microseconds())),
			itoa(int(r.BoundTime[2].Microseconds())), itoa(int(r.BoundTime[3].Microseconds())),
			itoa(int(r.Time.Milliseconds()))})
	}
	if err := writeCSVFile(dir, "table2.csv", rows); err != nil {
		return err
	}

	// Figure 1 is Figure 4's work-stealing-queue curve (the same sweep of
	// the same program), so that sweep runs once, for both.
	f4, err := Fig4Data(cfg)
	if err != nil {
		return err
	}
	var f1 []BoundPercent
	for _, s := range f4 {
		if s.Name == "Work Stealing Queue" {
			f1 = s.Points
		}
	}
	rows = [][]string{{"bound", "percent", "states"}}
	for _, p := range f1 {
		rows = append(rows, []string{itoa(p.Bound), fmt.Sprintf("%.2f", p.Percent), itoa(p.States)})
	}
	if err := writeCSVFile(dir, "fig1.csv", rows); err != nil {
		return err
	}

	for name, data := range map[string][]series{
		"fig2.csv": Fig2Data(cfg),
		"fig5.csv": Fig5Data(cfg),
		"fig6.csv": Fig6Data(cfg),
	} {
		if err := writeCSVFile(dir, name, seriesRows(data)); err != nil {
			return err
		}
	}

	rows = [][]string{{"bound"}}
	for _, s := range f4 {
		rows[0] = append(rows[0], s.Name)
	}
	maxLen := 0
	for _, s := range f4 {
		if len(s.Points) > maxLen {
			maxLen = len(s.Points)
		}
	}
	for i := 0; i < maxLen; i++ {
		row := []string{itoa(i)}
		for _, s := range f4 {
			if i < len(s.Points) {
				row = append(row, fmt.Sprintf("%.2f", s.Points[i].Percent))
			} else {
				row = append(row, "100.00")
			}
		}
		rows = append(rows, row)
	}
	return writeCSVFile(dir, "fig4.csv", rows)
}

// seriesRows renders growth curves as one row per sample point.
func seriesRows(data []series) [][]string {
	header := []string{"executions"}
	for _, s := range data {
		header = append(header, s.name)
	}
	rows := [][]string{header}
	maxLen := 0
	for _, s := range data {
		if len(s.curve) > maxLen {
			maxLen = len(s.curve)
		}
	}
	for i := 0; i < maxLen; i++ {
		x := 0
		for _, s := range data {
			if i < len(s.curve) {
				x = s.curve[i].Executions
				break
			}
		}
		row := []string{itoa(x)}
		for _, s := range data {
			switch {
			case i < len(s.curve):
				row = append(row, itoa(s.curve[i].States))
			case len(s.curve) > 0:
				row = append(row, itoa(s.curve[len(s.curve)-1].States))
			default:
				row = append(row, "")
			}
		}
		rows = append(rows, row)
	}
	return rows
}

func writeCSVFile(dir, name string, rows [][]string) error {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	if err := w.WriteAll(rows); err != nil {
		f.Close()
		return err
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func itoa(n int) string { return strconv.Itoa(n) }
