// Package nvml provides the NVML-style device utilization query that LAKE's
// contention policies sample (§4.3: "A policy's toolset includes any OS- or
// vendor-provided utilities (e.g. NVIDIA's NVML API, supported by LAKE)").
package nvml

import (
	"time"

	"lakego/internal/gpu"
)

// Utilization mirrors nvmlUtilization_t: percentages over the sampling
// window.
type Utilization struct {
	// GPU is the percentage of time one or more kernels executed.
	GPU int
	// Memory is the percentage of time device memory was being read or
	// written; the model approximates it from allocation pressure.
	Memory int
}

// SamplingWindow matches NVML's documented utilization sampling period
// range (roughly 50ms-1s depending on device); policies should treat
// readings as smoothed, which is why the Fig 3 policy applies its own
// moving average on top.
const SamplingWindow = 50 * time.Millisecond

// DeviceGetUtilizationRates reports device utilization over the trailing
// sampling window, like nvmlDeviceGetUtilizationRates.
func DeviceGetUtilizationRates(dev *gpu.Device) Utilization {
	return DeviceGetUtilizationRatesWindow(dev, SamplingWindow)
}

// DeviceGetUtilizationRatesWindow is DeviceGetUtilizationRates over an
// explicit trailing window. Long-horizon experiments (and the pool's
// placement policies) sample wider windows than NVML's default period.
func DeviceGetUtilizationRatesWindow(dev *gpu.Device, window time.Duration) Utilization {
	u := dev.Utilization(window, "")
	memFrac := float64(dev.MemUsed()) / float64(dev.Spec().MemoryBytes)
	return Utilization{
		GPU:    int(u*100 + 0.5),
		Memory: int(memFrac*100 + 0.5),
	}
}

// AggregateUtilizationRates folds per-device readings into one pool-wide
// figure: GPU is the mean busy percentage across devices (an idle device
// pulls the aggregate down, signalling spare capacity), Memory is total
// used over total capacity.
func AggregateUtilizationRates(devs []*gpu.Device) Utilization {
	if len(devs) == 0 {
		return Utilization{}
	}
	var gpuSum float64
	var used, capacity int64
	for _, dev := range devs {
		gpuSum += dev.Utilization(SamplingWindow, "")
		used += dev.MemUsed()
		capacity += dev.Spec().MemoryBytes
	}
	var memFrac float64
	if capacity > 0 {
		memFrac = float64(used) / float64(capacity)
	}
	return Utilization{
		GPU:    int(gpuSum/float64(len(devs))*100 + 0.5),
		Memory: int(memFrac*100 + 0.5),
	}
}

// DeviceGetClientUtilization reports utilization attributable to a single
// context tag, NVML's per-process query. The paper's adaptive policy (Fig
// 13) uses the aggregate number, and no experiment calls this: Fig 15's
// kernel/user split is ecryptfs.UtilizationTrace's modeled constants.
func DeviceGetClientUtilization(dev *gpu.Device, client string) int {
	return int(dev.Utilization(SamplingWindow, client)*100 + 0.5)
}
