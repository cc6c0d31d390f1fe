// Secure NLP scoring: the paper's motivating workload run end-to-end over
// the distributed edge runtime — QKD key exchange, symmetric masking of
// token features, TCP upload, server-side transciphering into CKKS, fused
// encrypted inference, and client-side decryption of the result.
//
// Two encrypted stages run over the same session: the slot-wise affine
// scorer (Compute) and a packed dense layer served by the hoisted-BSGS
// matrix–vector kernel (MatVec) under one-time-uploaded Galois rotation
// keys.
//
// The server never sees plaintext features or results; the client never
// performs heavyweight HE evaluation (only one-time key encryption).
//
//	go run ./examples/securenlp
package main

import (
	"fmt"
	"log"

	"quhe/internal/edge"
	"quhe/internal/qkd"
)

func main() {
	// Sentiment-style scoring model: per-feature weight and bias applied
	// to encrypted token embeddings (slot-wise affine inference).
	model := edge.Model{
		Weights: []float64{0.8, -0.6, 0.4, -0.2, 0.9, -0.5, 0.3, 0.7},
		Bias:    []float64{0.05, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05},
		// Dense attention-pooling layer: an 8×8 mixing matrix applied to
		// the embedding under encryption by the BSGS matvec kernel.
		Matrix: [][]float64{
			{0.30, 0.10, -0.05, 0.00, 0.15, -0.10, 0.05, 0.20},
			{0.10, 0.40, 0.05, -0.15, 0.00, 0.10, -0.05, 0.00},
			{-0.05, 0.05, 0.35, 0.10, -0.10, 0.00, 0.15, -0.05},
			{0.00, -0.15, 0.10, 0.45, 0.05, -0.05, 0.00, 0.10},
			{0.15, 0.00, -0.10, 0.05, 0.50, 0.10, -0.15, 0.05},
			{-0.10, 0.10, 0.00, -0.05, 0.10, 0.40, 0.05, -0.10},
			{0.05, -0.05, 0.15, 0.00, -0.15, 0.05, 0.55, 0.00},
			{0.20, 0.00, -0.05, 0.10, 0.05, -0.10, 0.00, 0.35},
		},
		MatrixBias: []float64{0.02, -0.01, 0.00, 0.01, 0.02, -0.02, 0.01, 0.00},
	}
	server, err := edge.NewServer("127.0.0.1:0", edge.ServerConfig{
		Model: model,
		Logf:  log.Printf,
	})
	if err != nil {
		log.Fatalf("server: %v", err)
	}
	defer server.Close()
	fmt.Printf("edge server listening on %s\n", server.Addr())

	// QKD phase: the key centre runs a BBM92 exchange over a route with
	// end-to-end Werner parameter 0.96 (QBER 2%) and banks the key.
	kc := qkd.NewKeyCenter()
	if err := kc.Provision("nlp-client", 500); err != nil {
		log.Fatalf("provision: %v", err)
	}
	ex, err := kc.RunExchange("nlp-client", 0.96, 16384, 7)
	if err != nil {
		log.Fatalf("qkd exchange: %v", err)
	}
	fmt.Printf("QKD: %d key bytes distributed (QBER %.3f, secret fraction %.3f)\n",
		len(ex.Key), ex.EstimatedQBER, ex.SecretFraction)

	qkdKey, err := kc.Withdraw("nlp-client", 32)
	if err != nil {
		log.Fatalf("withdraw: %v", err)
	}

	client, err := edge.DialWith(server.Addr(), "nlp-client", qkdKey, 42, edge.DialConfig{})
	if err != nil {
		log.Fatalf("dial: %v", err)
	}
	defer client.Close()

	// Two batches of token features (e.g. embedding projections).
	batches := [][]float64{
		{0.92, 0.15, -0.33, 0.48, 0.77, -0.61, 0.20, 0.05},
		{-0.44, 0.66, 0.12, -0.89, 0.31, 0.58, -0.07, 0.73},
	}
	for b, features := range batches {
		scores, err := client.Compute(uint32(b), features)
		if err != nil {
			log.Fatalf("compute batch %d: %v", b, err)
		}
		fmt.Printf("\nbatch %d (modeled: tx %.1fms, server compute %.1fms):\n",
			b, 1000*client.LastTxDelay, 1000*client.LastCmpDelay)
		fmt.Println("  feature   encrypted-score   plaintext-check   |error|")
		for i, x := range features {
			want := model.Weights[i]*x + model.Bias[i]
			diff := scores[i] - want
			if diff < 0 {
				diff = -diff
			}
			fmt.Printf("  %7.3f   %15.4f   %15.4f   %7.4f\n", x, scores[i], want, diff)
		}
	}
	// Dense layer through the serve path: upload the Galois rotation keys
	// once (they are public evaluation material, kept on the session),
	// then score embeddings through the packed matrix.
	if dim := client.MatVecDim(); dim > 0 {
		if err := client.EnableMatVec(); err != nil {
			log.Fatalf("enable matvec: %v", err)
		}
		embedding := []float64{0.92, 0.15, -0.33, 0.48, 0.77, -0.61, 0.20, 0.05}
		pooled, err := client.MatVec(uint32(len(batches)), embedding)
		if err != nil {
			log.Fatalf("matvec: %v", err)
		}
		fmt.Printf("\ndense layer (dim %d, hoisted BSGS under encryption):\n", dim)
		fmt.Println("  out-slot   encrypted-score   plaintext-check   |error|")
		for i := 0; i < dim; i++ {
			want := model.MatrixBias[i]
			for j, x := range embedding {
				want += model.Matrix[i][j] * x
			}
			diff := pooled[i] - want
			if diff < 0 {
				diff = -diff
			}
			fmt.Printf("  %8d   %15.4f   %15.4f   %7.4f\n", i, pooled[i], want, diff)
		}
	}

	stats, _ := server.SessionStats("nlp-client")
	fmt.Printf("\nserver processed %d blocks without ever seeing a plaintext\n", stats.Blocks)
}
