package main

import (
	"flag"
	"io"
	"testing"

	"ftnoc"
)

// TestWarmupMessages checks the -warmup default: a quarter of -messages
// unless -warmup is given, and an explicit value is kept as given so
// Validate still rejects one larger than the run.
func TestWarmupMessages(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		want    uint64
		invalid bool
	}{
		{args: nil, want: 2000}, // the NewConfig 2,000/8,000 default
		{args: []string{"-messages", "200"}, want: 50},
		{args: []string{"-messages", "200", "-warmup", "0"}, want: 0},
		{args: []string{"-messages", "200", "-warmup", "120"}, want: 120},
		{args: []string{"-messages", "200", "-warmup", "500"}, want: 500, invalid: true},
	} {
		fs := flag.NewFlagSet("nocsim", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		messages := fs.Uint64("messages", ftnoc.NewConfig().TotalMessages, "")
		warmup := fs.Uint64("warmup", 0, "")
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		got := warmupMessages(fs, *messages, *warmup)
		if got != tc.want {
			t.Errorf("%v: warm-up %d, want %d", tc.args, got, tc.want)
		}
		cfg := ftnoc.NewConfig()
		cfg.TotalMessages, cfg.WarmupMessages = *messages, got
		if err := cfg.Validate(); (err != nil) != tc.invalid {
			t.Errorf("%v: Validate() = %v, want invalid=%v", tc.args, err, tc.invalid)
		}
	}
}
