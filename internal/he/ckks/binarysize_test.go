package ckks_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"quhe/internal/he/ckks"
	"quhe/internal/he/profile"
	"quhe/internal/he/ring"
)

// The golden encoders below build every layout limb by limb and
// coefficient by coefficient, independent of the codecs under test.

func goldenLimbs(b []byte, p ring.RNSPoly) []byte {
	for _, limb := range p {
		for _, v := range limb {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
	}
	return b
}

func goldenPolyHeader(b []byte, level int, scale float64, n int) []byte {
	b = append(b, byte(level))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(scale))
	return binary.LittleEndian.AppendUint32(b, uint32(n))
}

// goldenGadget writes a switching key as it travels: header, moduli and
// seed, then the component-0 runs — component 1 is the seed's expansion.
func goldenGadget(b []byte, k *ckks.SwitchingKey) []byte {
	b = append(b, byte(len(k.Parts)), byte(len(k.Parts[0][0])))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(k.Parts[0][0][0])))
	for _, q := range k.QP {
		b = binary.LittleEndian.AppendUint64(b, q)
	}
	b = append(b, k.Seed[:]...)
	for _, part := range k.Parts {
		b = goldenLimbs(b, part[0])
	}
	return b
}

func goldenGaloisKey(b []byte, gk *ckks.GaloisKey) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(gk.Rot)))
	b = binary.LittleEndian.AppendUint64(b, gk.El)
	return goldenGadget(b, &gk.SwitchingKey)
}

// fillCiphertext writes a distinct, deterministic value into every
// coefficient so a limb swapped or dropped by the codec cannot match.
func fillCiphertext(ct *ckks.Ciphertext, seed uint64) {
	v := seed
	for _, p := range []ring.RNSPoly{ct.C0, ct.C1} {
		for _, limb := range p {
			for i := range limb {
				v = v*6364136223846793005 + 1442695040888963407
				limb[i] = v >> 4
			}
		}
	}
}

// sized is one wire value: its codec's size, its codec's encoding and
// the golden encoding.
type sized struct {
	name   string
	size   int
	enc    []byte
	golden []byte
}

// TestBinarySizeMatchesEncoding holds every CKKS wire type's BinarySize to
// the length its AppendBinary appends, and that encoding to a golden one
// built limb by limb, on every registered profile: ciphertexts at every
// level, the relinearization key, one Galois key and the BSGS key set of a
// 64×64 matrix. Byte identity with the golden
// layout is what pins the wire to its frame version across codec changes.
func TestBinarySizeMatchesEncoding(t *testing.T) {
	for _, id := range profile.Default().IDs() {
		prof, _ := profile.Default().Get(id)
		t.Run(prof.ID, func(t *testing.T) {
			ctx, err := prof.Context()
			if err != nil {
				t.Fatal(err)
			}
			n := ctx.Params.N()
			kg := ckks.NewKeyGenerator(ctx, 11)
			sk := kg.GenSecretKey()
			rlk := kg.GenRelinKey(sk)
			gk := kg.GenGaloisKey(sk, 5)
			set := kg.GenGaloisKeys(sk, ckks.BSGSRotations(64))

			var cases []sized
			for level := 0; level <= ctx.MaxLevel(); level++ {
				ct := ctx.NewCiphertext(level)
				ct.Scale = ctx.Params.Scale()
				fillCiphertext(ct, uint64(level+1))
				g := goldenPolyHeader(nil, level, ct.Scale, n)
				g = goldenLimbs(goldenLimbs(g, ct.C0), ct.C1)
				cases = append(cases, sized{fmt.Sprintf("ciphertext level %d", level), ct.BinarySize(), ct.AppendBinary(nil), g})
			}

			cases = append(cases, sized{"relin key", rlk.BinarySize(), rlk.AppendBinary(nil), goldenGadget(nil, rlk)})
			cases = append(cases, sized{"galois key", gk.BinarySize(), gk.AppendBinary(nil), goldenGaloisKey(nil, gk)})

			els := make([]uint64, 0, len(set.Keys))
			for el := range set.Keys {
				els = append(els, el)
			}
			slices.Sort(els)
			g := binary.LittleEndian.AppendUint16(nil, uint16(len(els)))
			for _, el := range els {
				g = goldenGaloisKey(g, set.Keys[el])
			}
			cases = append(cases, sized{"galois key set", set.BinarySize(), set.AppendBinary(nil), g})

			for _, c := range cases {
				if len(c.enc) != c.size {
					t.Errorf("%s: BinarySize %d, AppendBinary appended %d bytes", c.name, c.size, len(c.enc))
				}
				if !bytes.Equal(c.enc, c.golden) {
					t.Errorf("%s: encoding differs from the limb-by-limb golden layout", c.name)
				}
			}
		})
	}
}
