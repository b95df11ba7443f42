package edge

import (
	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// Deployment is a model loaded onto a simulated device.
type Deployment struct {
	Device Device
	// Model is the device-precision copy (weights fake-quantised,
	// activation quantisers inserted). The source checkpoint is untouched.
	Model *nn.Model
}

// Deploy converts a trained checkpoint to device precision with dynamic
// activation scaling (an idealisation; prefer DeployCalibrated when
// representative inputs are available).
func Deploy(m *nn.Model, d Device) *Deployment {
	return &Deployment{Device: d, Model: quant.DeployModel(m, d.Precision)}
}

// DeployCalibrated converts a trained checkpoint to device precision and,
// for int8 devices, freezes the activation-quantiser scales from the
// calibration inputs (post-training static quantisation, as the Coral
// toolchain performs at model conversion).
func DeployCalibrated(m *nn.Model, d Device, calib []*tensor.Tensor) *Deployment {
	dep := Deploy(m, d)
	if len(calib) > 0 {
		quant.Calibrate(dep.Model, calib)
	}
	return dep
}

// Cost reports the simulated Table II time/power block for this deployment
// fine-tuning ftSamples samples over ftEpochs epochs.
func (dep *Deployment) Cost(inShape []int, ftSamples, ftEpochs int) CostReport {
	return dep.Device.Cost(dep.Model, inShape, ftSamples, ftEpochs)
}
