"""motok: motion tokenization, diffusion sampling, and scene-aware evaluation."""
