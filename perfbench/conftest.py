"""Puts the checkout's ``src`` and this directory on the import path, so
``python3 -m pytest perfbench`` runs from the root of a checkout."""
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
