"""Fine-tuning experiment orchestration: grids, stores, runners, reports."""
