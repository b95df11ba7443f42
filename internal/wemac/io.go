package wemac

import (
	"bufio"
	"io"
	"strconv"

	"repro/internal/features"
)

// Dataset exports, both CSV so external tooling can read them:
//
//   - a trial dump (WriteTrialCSV) matching how physiological corpora
//     like WEMAC ship their signals;
//   - a feature dump (WriteFeatureCSV) of a population's feature maps.

// WriteTrialCSV dumps one trial's three channels as CSV rows of
// "time_s,channel,value" (channels are sampled at different rates, so the
// long format is the natural one).
func WriteTrialCSV(w io.Writer, tr *Trial) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("time_s,channel,value\n"); err != nil {
		return err
	}
	emit := func(name string, x []float64, fs float64) error {
		for i, v := range x {
			line := strconv.FormatFloat(float64(i)/fs, 'f', 4, 64) + "," + name + "," +
				strconv.FormatFloat(v, 'g', -1, 64) + "\n"
			if _, err := bw.WriteString(line); err != nil {
				return err
			}
		}
		return nil
	}
	if err := emit("bvp", tr.Rec.BVP, tr.Rec.BVPFs); err != nil {
		return err
	}
	if err := emit("gsr", tr.Rec.GSR, tr.Rec.GSRFs); err != nil {
		return err
	}
	if err := emit("skt", tr.Rec.SKT, tr.Rec.SKTFs); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteFeatureCSV dumps a population's feature maps as CSV rows of
// "user,archetype,trial,label,window,feature,value" for analysis with
// external tooling.
func WriteFeatureCSV(w io.Writer, users []*UserMaps) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("user,archetype,trial,label,window,feature,value\n"); err != nil {
		return err
	}
	names := features.FeatureNames()
	for _, u := range users {
		for ti, lm := range u.Maps {
			f, ww := lm.Map.Dim(0), lm.Map.Dim(1)
			for fi := 0; fi < f; fi++ {
				for wi := 0; wi < ww; wi++ {
					line := strconv.Itoa(u.ID) + "," + strconv.Itoa(u.Archetype) + "," +
						strconv.Itoa(ti) + "," + strconv.Itoa(int(lm.Label)) + "," +
						strconv.Itoa(wi) + "," + names[fi] + "," +
						strconv.FormatFloat(lm.Map.At(fi, wi), 'g', -1, 64) + "\n"
					if _, err := bw.WriteString(line); err != nil {
						return err
					}
				}
			}
		}
	}
	return bw.Flush()
}
