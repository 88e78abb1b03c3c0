package cnn

import (
	"math"
	"strings"
	"testing"
)

func TestAlexNetLayerCount(t *testing.T) {
	n := AlexNet()
	if len(n.Layers) != 8 {
		t.Fatalf("AlexNet has %d layers, want 8 (CONV1-5, FC6-8)", len(n.Layers))
	}
	wantNames := []string{"CONV1", "CONV2", "CONV3", "CONV4", "CONV5", "FC6", "FC7", "FC8"}
	for i, w := range wantNames {
		if n.Layers[i].Name != w {
			t.Errorf("layer %d = %s, want %s", i, n.Layers[i].Name, w)
		}
	}
}

func TestAlexNetConv1Geometry(t *testing.T) {
	l := AlexNet().Layers[0]
	if l.InputHeight() != 227 || l.InputWidth() != 227 {
		t.Errorf("CONV1 input = %dx%d, want 227x227", l.InputHeight(), l.InputWidth())
	}
	if got := l.MACs(); got != 55*55*96*3*11*11 {
		t.Errorf("CONV1 MACs = %d", got)
	}
	if got := l.WgtElems(); got != 11*11*3*96 {
		t.Errorf("CONV1 weights = %d", got)
	}
	if got := l.OfmElems(); got != 55*55*96 {
		t.Errorf("CONV1 ofms = %d", got)
	}
}

func TestAlexNetFC6Shape(t *testing.T) {
	l := AlexNet().Layers[5]
	if l.Kind != FC {
		t.Fatalf("FC6 kind = %v", l.Kind)
	}
	if l.I != 9216 || l.J != 4096 {
		t.Errorf("FC6 = %d->%d, want 9216->4096", l.I, l.J)
	}
	if got := l.IfmElems(); got != 9216 {
		t.Errorf("FC6 ifm elems = %d, want 9216", got)
	}
	if got := l.WgtElems(); got != 9216*4096 {
		t.Errorf("FC6 weights = %d", got)
	}
}

func TestAlexNetTotalMACsPlausible(t *testing.T) {
	// AlexNet (ungrouped) is about 1.1-1.5 GMAC per image.
	total := AlexNet().TotalMACs()
	if total < 0.9e9 || total > 2.0e9 {
		t.Errorf("AlexNet total MACs = %d, want ~1.1e9", total)
	}
}

func TestAlexNetWeightsPlausible(t *testing.T) {
	// Ungrouped AlexNet carries ~60-65M weights, dominated by FC6.
	total := AlexNet().TotalWgtElems()
	if total < 55e6 || total > 75e6 {
		t.Errorf("AlexNet weights = %d, want ~6e7", total)
	}
}

func TestVGG16Shapes(t *testing.T) {
	n := VGG16()
	if len(n.Layers) != 16 {
		t.Fatalf("VGG-16 has %d layers, want 16", len(n.Layers))
	}
	// ~15.5 GMAC per image is the standard figure (conv layers only
	// dominate; our count includes FCs).
	total := n.TotalMACs()
	if total < 14e9 || total > 17e9 {
		t.Errorf("VGG-16 MACs = %d, want ~15.5e9", total)
	}
	// ~138M parameters.
	if w := n.TotalWgtElems(); w < 130e6 || w > 145e6 {
		t.Errorf("VGG-16 weights = %d, want ~138e6", w)
	}
}

func TestLeNet5Shapes(t *testing.T) {
	n := LeNet5()
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	conv2 := n.Layers[1]
	if conv2.InputHeight() != 14 {
		t.Errorf("LeNet CONV2 input height = %d, want 14", conv2.InputHeight())
	}
}

func TestResNet18Validates(t *testing.T) {
	n := ResNet18()
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	// ~1.8 GMAC per image.
	total := n.TotalMACs()
	if total < 1.4e9 || total > 2.4e9 {
		t.Errorf("ResNet-18 MACs = %d, want ~1.8e9", total)
	}
}

func TestAllNetworksValidate(t *testing.T) {
	for _, n := range Networks() {
		if err := n.Validate(); err != nil {
			t.Errorf("%s: %v", n.Name, err)
		}
	}
}

func TestValidateRejectsBadLayers(t *testing.T) {
	bads := []Layer{
		{Name: "neg", Kind: Conv, H: 0, W: 1, J: 1, I: 1, P: 1, Q: 1, Stride: 1},
		{Name: "pad", Kind: Conv, H: 1, W: 1, J: 1, I: 1, P: 1, Q: 1, Stride: 1, Pad: -1},
		{Name: "fc", Kind: FC, H: 2, W: 1, J: 1, I: 1, P: 1, Q: 1, Stride: 1},
		{Name: "stride", Kind: Conv, H: 1, W: 1, J: 1, I: 1, P: 1, Q: 1, Stride: 0},
		// Padding as wide as the kernel or wider.
		{Name: "pad-p", Kind: Conv, H: 4, W: 4, J: 4, I: 4, P: 1, Q: 1, Stride: 1, Pad: 5},
		{Name: "pad-q", Kind: Conv, H: 4, W: 4, J: 4, I: 4, P: 5, Q: 3, Stride: 1, Pad: 3},
		// Pad < kernel, but the single output row needs 5-8 = -3 input rows.
		{Name: "empty-input", Kind: Conv, H: 1, W: 1, J: 1, I: 1, P: 5, Q: 5, Stride: 1, Pad: 4},
		// Element counts and MACs past int64.
		{Name: "huge", Kind: Conv, H: 1 << 30, W: 1 << 30, J: 1 << 30, I: 1 << 30, P: 3, Q: 3, Stride: 1, Pad: 1},
		{Name: "huge-fc", Kind: FC, H: 1, W: 1, J: 1 << 32, I: 1 << 32, P: 1, Q: 1, Stride: 1},
		{Name: "huge-stride", Kind: Conv, H: 1 << 40, W: 1, J: 1, I: 1, P: 1, Q: 1, Stride: 1 << 40},
		{Name: "huge-kernel", Kind: Conv, H: 2, W: 1, J: 1, I: 1, P: math.MaxInt, Q: 1, Stride: math.MaxInt},
	}
	for _, l := range bads {
		if err := l.Validate(); err == nil {
			t.Errorf("layer %s accepted: %+v", l.Name, l)
		}
	}
}

// TestValidateAcceptsLargeExactLayers: the size bound rejects only
// layers whose derived counts overflow, not large ones that fit.
func TestValidateAcceptsLargeExactLayers(t *testing.T) {
	for _, l := range []Layer{
		// 2^40 ofm elements, ~2^53 MACs.
		{Name: "big", H: 1 << 15, W: 1 << 15, J: 1 << 10, I: 1 << 10, P: 3, Q: 3, Stride: 1, Pad: 1},
		// The perfbench custom-stack shape: 3x3, pad 1.
		{Name: "stack", H: 14, W: 14, J: 64, I: 32, P: 3, Q: 3, Stride: 1, Pad: 1},
	} {
		if err := l.Validate(); err != nil {
			t.Errorf("%s: valid layer rejected: %v", l.Name, err)
		}
	}
}

func TestValidateRejectsEmptyNetwork(t *testing.T) {
	if err := (Network{Name: "empty"}).Validate(); err == nil {
		t.Error("empty network accepted")
	}
}

func TestPaddedInputDims(t *testing.T) {
	// AlexNet CONV2: 27x27 out, 5x5 kernel, stride 1, pad 2 -> 27x27 in.
	l := AlexNet().Layers[1]
	if l.InputHeight() != 27 || l.InputWidth() != 27 {
		t.Errorf("CONV2 input = %dx%d, want 27x27", l.InputHeight(), l.InputWidth())
	}
}

func TestInputDimsClampedToOne(t *testing.T) {
	l := Layer{Name: "tiny", Kind: Conv, H: 1, W: 1, J: 1, I: 1, P: 1, Q: 1, Stride: 1, Pad: 3}
	if l.InputHeight() != 1 || l.InputWidth() != 1 {
		t.Errorf("overpadded input dims = %dx%d, want clamped to 1x1", l.InputHeight(), l.InputWidth())
	}
}

func TestLayerString(t *testing.T) {
	convStr := AlexNet().Layers[0].String()
	for _, sub := range []string{"CONV1", "55x55x96", "11x11", "s4"} {
		if !strings.Contains(convStr, sub) {
			t.Errorf("conv string %q missing %q", convStr, sub)
		}
	}
	fcStr := AlexNet().Layers[7].String()
	if !strings.Contains(fcStr, "4096->1000") {
		t.Errorf("fc string %q missing shape", fcStr)
	}
}

func TestLayerKindString(t *testing.T) {
	if Conv.String() != "CONV" || FC.String() != "FC" {
		t.Errorf("kind strings: %q %q", Conv, FC)
	}
}
