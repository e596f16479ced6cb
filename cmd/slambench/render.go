package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/imgproc"
	"repro/internal/journal"
	"repro/internal/sensor"
)

// runRender writes depth and intensity previews of the synthetic dataset
// as PGM images, for visual inspection of the simulated sensor.
func runRender(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("slambench render", flag.ContinueOnError)
	var (
		traj   = fs.String("trajectory", "lr-kt2", "sequence: lr-kt0, lr-kt1, lr-kt2, lr-kt3")
		frames = fs.Int("frames", 3, "number of frames to render")
		width  = fs.Int("width", 320, "image width")
		height = fs.Int("height", 240, "image height")
		noise  = fs.Float64("noise", 1, "Kinect noise amplification (0 = clean)")
		out    = fs.String("out", "previews", "output directory")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	gen, ok := sensor.Trajectories()[*traj]
	if !ok {
		return fmt.Errorf("unknown trajectory %q", *traj)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	nm := sensor.KinectNoise(*noise)
	if *noise == 0 {
		nm = sensor.NoiseModel{MaxRange: 4.5, Seed: 1}
	}
	ds := sensor.Generate(sensor.Options{
		Width: *width, Height: *height, Frames: *frames,
		Noise:      nm,
		Trajectory: sensor.TrajectorySlice(gen, 100),
		Name:       *traj,
	})

	for i, f := range ds.Frames {
		dp := filepath.Join(*out, fmt.Sprintf("%s_%03d_depth.pgm", *traj, i))
		ip := filepath.Join(*out, fmt.Sprintf("%s_%03d_intensity.pgm", *traj, i))
		if err := writePGM(dp, f.Depth, 4.5); err != nil {
			return err
		}
		if err := writePGM(ip, f.Intensity, 1.0); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "frame %d -> %s, %s\n", i, dp, ip)
	}
	return nil
}

// writePGM encodes a float map as an 8-bit binary PGM, scaling [0, max] to
// [0, 255]. Invalid (zero) pixels render black. The write is atomic, so an
// interrupted render never leaves a truncated frame for tooling to choke on.
func writePGM(path string, m *imgproc.Map, max float32) error {
	return journal.WriteFileAtomic(path, func(f io.Writer) error {
		if _, err := fmt.Fprintf(f, "P5\n%d %d\n255\n", m.W, m.H); err != nil {
			return err
		}
		buf := make([]byte, len(m.Pix))
		for i, v := range m.Pix {
			if v <= 0 {
				continue
			}
			s := v / max * 255
			if s > 255 {
				s = 255
			}
			buf[i] = byte(s)
		}
		_, err := f.Write(buf)
		return err
	})
}
