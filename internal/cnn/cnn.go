// Package cnn describes convolutional neural network workloads at the
// granularity the DRMap paper needs: per-layer tensor geometry. A layer
// is characterized by its output feature map (ofms) dimensions H x W x J,
// its input depth I, its kernel P x Q, stride and padding - exactly the
// loop bounds of the paper's Fig. 3 pseudo-code.
package cnn

import (
	"fmt"
	"math"
	"math/bits"
)

// LayerKind distinguishes convolutional from fully-connected layers.
// An FC layer is the degenerate convolution H = W = P = Q = 1.
type LayerKind int

const (
	// Conv is a standard 2-D convolution layer.
	Conv LayerKind = iota
	// FC is a fully-connected layer.
	FC
)

// String names the kind.
func (k LayerKind) String() string {
	if k == FC {
		return "FC"
	}
	return "CONV"
}

// Layer is one CNN layer's tensor geometry.
type Layer struct {
	Name string
	Kind LayerKind

	H int // ofms height
	W int // ofms width
	J int // ofms depth (output channels)
	I int // ifms depth (input channels)
	P int // kernel height
	Q int // kernel width

	Stride int
	Pad    int
}

// Validate reports a descriptive error for inconsistent geometry.
func (l Layer) Validate() error {
	dims := []struct {
		name string
		v    int
	}{
		{"H", l.H}, {"W", l.W}, {"J", l.J}, {"I", l.I}, {"P", l.P}, {"Q", l.Q},
		{"Stride", l.Stride},
	}
	for _, d := range dims {
		if d.v <= 0 {
			return fmt.Errorf("cnn: layer %s: %s must be positive, got %d", l.Name, d.name, d.v)
		}
	}
	if l.Pad < 0 {
		return fmt.Errorf("cnn: layer %s: negative padding %d", l.Name, l.Pad)
	}
	if l.Pad >= l.P || l.Pad >= l.Q {
		return fmt.Errorf("cnn: layer %s: padding %d must be smaller than the %dx%d kernel", l.Name, l.Pad, l.P, l.Q)
	}
	if l.Kind == FC && (l.H != 1 || l.W != 1 || l.P != 1 || l.Q != 1) {
		return fmt.Errorf("cnn: layer %s: FC layers need H=W=P=Q=1", l.Name)
	}
	return l.checkSizes()
}

// checkSizes rejects a layer whose stored input would be empty or whose
// derived sizes - the ifms, weights and ofms element counts and the
// MACs - overflow int64, so every count derived from a valid layer is
// exact. It assumes the positivity and padding checks passed.
func (l Layer) checkSizes() error {
	inH, okH := inputExtent(l.H, l.Stride, l.P, l.Pad)
	inW, okW := inputExtent(l.W, l.Stride, l.Q, l.Pad)
	if okH && okW && (inH < 1 || inW < 1) {
		return fmt.Errorf("cnn: layer %s: padding %d leaves a %dx%d stored input", l.Name, l.Pad, inH, inW)
	}
	_, okIfm := checkedProduct(inH, inW, int64(l.I))
	_, okWgt := checkedProduct(int64(l.P), int64(l.Q), int64(l.I), int64(l.J))
	ofm, okOfm := checkedProduct(int64(l.H), int64(l.W), int64(l.J))
	_, okMACs := checkedProduct(ofm, int64(l.I), int64(l.P), int64(l.Q))
	if !okH || !okW || !okIfm || !okWgt || !okOfm || !okMACs {
		return fmt.Errorf("cnn: layer %s: dimensions too large: the ifms, weights and ofms element counts and the MACs must each fit in int64", l.Name)
	}
	return nil
}

// inputExtent returns the stored input rows (or columns) of one spatial
// dimension, (out-1)*stride + kernel - 2*pad, and false when computing
// it overflows int. It needs 0 <= pad < kernel.
func inputExtent(out, stride, kernel, pad int) (int64, bool) {
	span, ok := checkedProduct(int64(out-1), int64(stride))
	if !ok {
		return 0, false
	}
	sum, carry := bits.Add64(uint64(span), uint64(kernel-pad), 0)
	if carry != 0 || sum > math.MaxInt {
		return 0, false
	}
	return int64(sum) - int64(pad), true
}

// checkedProduct multiplies non-negative factors and reports false when
// the product overflows int64.
func checkedProduct(factors ...int64) (int64, bool) {
	p := uint64(1)
	for _, f := range factors {
		hi, lo := bits.Mul64(p, uint64(f))
		if hi != 0 || lo > math.MaxInt64 {
			return 0, false
		}
		p = lo
	}
	return int64(p), true
}

// InputHeight returns the stored ifms height: the receptive field of the
// H output rows minus the padded border.
func (l Layer) InputHeight() int {
	h := (l.H-1)*l.Stride + l.P - 2*l.Pad
	if h < 1 {
		h = 1
	}
	return h
}

// InputWidth returns the stored ifms width.
func (l Layer) InputWidth() int {
	w := (l.W-1)*l.Stride + l.Q - 2*l.Pad
	if w < 1 {
		w = 1
	}
	return w
}

// IfmElems returns the element count of the layer's stored input
// feature maps for one image.
func (l Layer) IfmElems() int64 {
	return int64(l.InputHeight()) * int64(l.InputWidth()) * int64(l.I)
}

// WgtElems returns the element count of the layer's weights.
func (l Layer) WgtElems() int64 {
	return int64(l.P) * int64(l.Q) * int64(l.I) * int64(l.J)
}

// OfmElems returns the element count of the layer's output feature maps
// for one image.
func (l Layer) OfmElems() int64 {
	return int64(l.H) * int64(l.W) * int64(l.J)
}

// MACs returns the multiply-accumulate count of the layer for one image.
func (l Layer) MACs() int64 {
	return l.OfmElems() * int64(l.I) * int64(l.P) * int64(l.Q)
}

// String summarizes the layer.
func (l Layer) String() string {
	if l.Kind == FC {
		return fmt.Sprintf("%s %s %d->%d", l.Name, l.Kind, l.I, l.J)
	}
	return fmt.Sprintf("%s %s ofm %dx%dx%d ifm-depth %d kernel %dx%d s%d p%d",
		l.Name, l.Kind, l.H, l.W, l.J, l.I, l.P, l.Q, l.Stride, l.Pad)
}

// Network is an ordered list of layers.
type Network struct {
	Name   string
	Layers []Layer
}

// Validate checks every layer.
func (n Network) Validate() error {
	if len(n.Layers) == 0 {
		return fmt.Errorf("cnn: network %s has no layers", n.Name)
	}
	for _, l := range n.Layers {
		if err := l.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// TotalMACs sums MACs over all layers for one image.
func (n Network) TotalMACs() int64 {
	var total int64
	for _, l := range n.Layers {
		total += l.MACs()
	}
	return total
}

// TotalWgtElems sums weight elements over all layers.
func (n Network) TotalWgtElems() int64 {
	var total int64
	for _, l := range n.Layers {
		total += l.WgtElems()
	}
	return total
}

// conv is a helper constructor for convolution layers.
func conv(name string, h, w, j, i, p, q, stride, pad int) Layer {
	return Layer{Name: name, Kind: Conv, H: h, W: w, J: j, I: i, P: p, Q: q, Stride: stride, Pad: pad}
}

// fc is a helper constructor for fully-connected layers.
func fc(name string, in, out int) Layer {
	return Layer{Name: name, Kind: FC, H: 1, W: 1, J: out, I: in, P: 1, Q: 1, Stride: 1}
}

// AlexNet returns the evaluation workload of the DRMap paper
// (Krizhevsky et al., NIPS 2012) on 227x227x3 ImageNet inputs. The
// grouped convolutions of the original two-GPU model are flattened to
// their full input depth, the standard simplification in DRAM-traffic
// studies; see EXPERIMENTS.md.
func AlexNet() Network {
	return Network{
		Name: "AlexNet",
		Layers: []Layer{
			conv("CONV1", 55, 55, 96, 3, 11, 11, 4, 0),
			conv("CONV2", 27, 27, 256, 96, 5, 5, 1, 2),
			conv("CONV3", 13, 13, 384, 256, 3, 3, 1, 1),
			conv("CONV4", 13, 13, 384, 384, 3, 3, 1, 1),
			conv("CONV5", 13, 13, 256, 384, 3, 3, 1, 1),
			fc("FC6", 9216, 4096),
			fc("FC7", 4096, 4096),
			fc("FC8", 4096, 1000),
		},
	}
}

// VGG16 returns the VGG-16 configuration-D workload (Simonyan &
// Zisserman, 2014) on 224x224x3 inputs; used by the extension
// experiments beyond the paper's AlexNet evaluation.
func VGG16() Network {
	return Network{
		Name: "VGG-16",
		Layers: []Layer{
			conv("CONV1_1", 224, 224, 64, 3, 3, 3, 1, 1),
			conv("CONV1_2", 224, 224, 64, 64, 3, 3, 1, 1),
			conv("CONV2_1", 112, 112, 128, 64, 3, 3, 1, 1),
			conv("CONV2_2", 112, 112, 128, 128, 3, 3, 1, 1),
			conv("CONV3_1", 56, 56, 256, 128, 3, 3, 1, 1),
			conv("CONV3_2", 56, 56, 256, 256, 3, 3, 1, 1),
			conv("CONV3_3", 56, 56, 256, 256, 3, 3, 1, 1),
			conv("CONV4_1", 28, 28, 512, 256, 3, 3, 1, 1),
			conv("CONV4_2", 28, 28, 512, 512, 3, 3, 1, 1),
			conv("CONV4_3", 28, 28, 512, 512, 3, 3, 1, 1),
			conv("CONV5_1", 14, 14, 512, 512, 3, 3, 1, 1),
			conv("CONV5_2", 14, 14, 512, 512, 3, 3, 1, 1),
			conv("CONV5_3", 14, 14, 512, 512, 3, 3, 1, 1),
			fc("FC6", 25088, 4096),
			fc("FC7", 4096, 4096),
			fc("FC8", 4096, 1000),
		},
	}
}

// LeNet5 returns the classic LeNet-5 workload (LeCun et al., 1998) on
// 32x32x1 inputs; a small smoke-test network for examples and tests.
func LeNet5() Network {
	return Network{
		Name: "LeNet-5",
		Layers: []Layer{
			conv("CONV1", 28, 28, 6, 1, 5, 5, 1, 0),
			conv("CONV2", 10, 10, 16, 6, 5, 5, 1, 0),
			fc("FC3", 400, 120),
			fc("FC4", 120, 84),
			fc("FC5", 84, 10),
		},
	}
}

// ResNet18 returns the convolutional shapes of ResNet-18 (He et al.,
// 2015) on 224x224x3 inputs, including the strided downsample
// projections; residual additions do not touch DRAM in this model.
func ResNet18() Network {
	return Network{
		Name: "ResNet-18",
		Layers: []Layer{
			conv("CONV1", 112, 112, 64, 3, 7, 7, 2, 3),
			conv("CONV2_1A", 56, 56, 64, 64, 3, 3, 1, 1),
			conv("CONV2_1B", 56, 56, 64, 64, 3, 3, 1, 1),
			conv("CONV2_2A", 56, 56, 64, 64, 3, 3, 1, 1),
			conv("CONV2_2B", 56, 56, 64, 64, 3, 3, 1, 1),
			conv("CONV3_1A", 28, 28, 128, 64, 3, 3, 2, 1),
			conv("CONV3_1B", 28, 28, 128, 128, 3, 3, 1, 1),
			conv("CONV3_DS", 28, 28, 128, 64, 1, 1, 2, 0),
			conv("CONV3_2A", 28, 28, 128, 128, 3, 3, 1, 1),
			conv("CONV3_2B", 28, 28, 128, 128, 3, 3, 1, 1),
			conv("CONV4_1A", 14, 14, 256, 128, 3, 3, 2, 1),
			conv("CONV4_1B", 14, 14, 256, 256, 3, 3, 1, 1),
			conv("CONV4_DS", 14, 14, 256, 128, 1, 1, 2, 0),
			conv("CONV4_2A", 14, 14, 256, 256, 3, 3, 1, 1),
			conv("CONV4_2B", 14, 14, 256, 256, 3, 3, 1, 1),
			conv("CONV5_1A", 7, 7, 512, 256, 3, 3, 2, 1),
			conv("CONV5_1B", 7, 7, 512, 512, 3, 3, 1, 1),
			conv("CONV5_DS", 7, 7, 512, 256, 1, 1, 2, 0),
			conv("CONV5_2A", 7, 7, 512, 512, 3, 3, 1, 1),
			conv("CONV5_2B", 7, 7, 512, 512, 3, 3, 1, 1),
			fc("FC", 512, 1000),
		},
	}
}

// Networks returns all built-in workloads.
func Networks() []Network {
	return []Network{AlexNet(), VGG16(), LeNet5(), ResNet18()}
}
