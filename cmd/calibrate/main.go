// Command calibrate builds a black-box cost model for one of the built-in
// simulated device types by running the paper's calibration procedure
// (Sec. 5.2.2): controlled workloads sweeping request size, run count and
// contention, tabulating the measured per-request service costs.
//
// Usage:
//
//	calibrate -device disk15k|disk7200|ssd|raid0xN [-o model.json] [-fast]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"dblayout"
	"dblayout/internal/costmodel"
	"dblayout/internal/storage"
)

func factoryFor(device string) (costmodel.TargetFactory, error) {
	if f, err := dblayout.DeviceFactory(device); err == nil {
		return f, nil
	}
	if strings.HasPrefix(device, "raid0x") {
		n, err := strconv.Atoi(device[len("raid0x"):])
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad RAID member count in %q", device)
		}
		return func(e *storage.Engine) storage.Device {
			members := make([]storage.Device, n)
			for i := range members {
				members[i] = storage.NewDisk(e, fmt.Sprintf("m%d", i), storage.Disk15KConfig())
			}
			return storage.NewRAID0(e, "raid", storage.DefaultStripeUnit, members...)
		}, nil
	}
	return nil, fmt.Errorf("unknown device %q (want disk15k, disk7200, ssd, raid0xN)", device)
}

func run() error {
	device := flag.String("device", "disk15k", "device type to calibrate")
	out := flag.String("o", "", "output file (default stdout)")
	fast := flag.Bool("fast", false, "coarse calibration grid")
	flag.Parse()

	factory, err := factoryFor(*device)
	if err != nil {
		return err
	}
	grid := costmodel.DefaultGrid()
	if *fast {
		grid = costmodel.FastGrid()
	}

	fmt.Fprintf(os.Stderr, "calibrating %s (%d sizes x %d run counts x %d contention levels)...\n",
		*device, len(grid.Sizes), len(grid.RunCounts), len(grid.Competitors))
	m := costmodel.Calibrate(*device, factory, grid)

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return m.Save(w)
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "calibrate:", err)
		os.Exit(1)
	}
}
