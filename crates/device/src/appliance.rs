//! The appliance catalogue.
//!
//! The paper splits household appliances in two classes:
//!
//! * **Type-1 (instant)** — must switch ON the moment the user asks: fans,
//!   TVs, laptops, hair-dryers. Their load is not schedulable.
//! * **Type-2 (schedulable)** — high-power devices that internally
//!   duty-cycle a power-hungry element (compressor, heating coil): air
//!   conditioners, room/water heaters, fridges. Their Device Interface may
//!   shift the element's ON periods in time within duty-cycle constraints.

use crate::power::Watts;
use std::fmt;

/// Identifier of an appliance / Device Interface pair.
///
/// In the paper's deployment device `i` is attached to the DI at network
/// node `i`, so this maps 1:1 to `han_net::NodeId`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DeviceId(pub u32);

impl DeviceId {
    /// Returns the id as a usize index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

impl From<u32> for DeviceId {
    fn from(v: u32) -> Self {
        DeviceId(v)
    }
}

/// The paper's two appliance classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceClass {
    /// Type-1: turns ON instantly on request; not schedulable.
    Instant,
    /// Type-2: duty-cycled and schedulable within minDCD/maxDCP.
    Schedulable,
}

impl fmt::Display for DeviceClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceClass::Instant => write!(f, "Type-1"),
            DeviceClass::Schedulable => write!(f, "Type-2"),
        }
    }
}

/// Common household appliance kinds with typical rated powers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ApplianceKind {
    /// Ceiling or pedestal fan (Type-1).
    Fan,
    /// Television (Type-1).
    Television,
    /// Laptop / charger (Type-1).
    Laptop,
    /// Hair dryer — instant but power-hungry (Type-1).
    HairDryer,
    /// Blender / mixer (Type-1).
    Blender,
    /// Room lighting cluster (Type-1).
    Lighting,
    /// Split air conditioner compressor (Type-2).
    AirConditioner,
    /// Resistive room heater (Type-2).
    RoomHeater,
    /// Storage water heater (Type-2).
    WaterHeater,
    /// Refrigerator compressor (Type-2).
    Fridge,
    /// Water cooler (Type-2).
    WaterCooler,
}

impl ApplianceKind {
    /// The paper's class of this appliance.
    pub fn class(self) -> DeviceClass {
        match self {
            ApplianceKind::Fan
            | ApplianceKind::Television
            | ApplianceKind::Laptop
            | ApplianceKind::HairDryer
            | ApplianceKind::Blender
            | ApplianceKind::Lighting => DeviceClass::Instant,
            ApplianceKind::AirConditioner
            | ApplianceKind::RoomHeater
            | ApplianceKind::WaterHeater
            | ApplianceKind::Fridge
            | ApplianceKind::WaterCooler => DeviceClass::Schedulable,
        }
    }
}

impl fmt::Display for ApplianceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ApplianceKind::Fan => "fan",
            ApplianceKind::Television => "television",
            ApplianceKind::Laptop => "laptop",
            ApplianceKind::HairDryer => "hair dryer",
            ApplianceKind::Blender => "blender",
            ApplianceKind::Lighting => "lighting",
            ApplianceKind::AirConditioner => "air conditioner",
            ApplianceKind::RoomHeater => "room heater",
            ApplianceKind::WaterHeater => "water heater",
            ApplianceKind::Fridge => "fridge",
            ApplianceKind::WaterCooler => "water cooler",
        };
        f.write_str(name)
    }
}

/// One concrete appliance instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Appliance {
    id: DeviceId,
    kind: ApplianceKind,
    rated_power: Watts,
}

impl Appliance {
    /// Creates an appliance with an explicit rated power.
    ///
    /// # Panics
    ///
    /// Panics if `rated_power` is negative or not finite.
    pub fn with_power(id: DeviceId, kind: ApplianceKind, rated_power: Watts) -> Self {
        assert!(
            rated_power.value().is_finite() && rated_power.value() >= 0.0,
            "rated power must be finite and non-negative"
        );
        Appliance {
            id,
            kind,
            rated_power,
        }
    }

    /// The device id.
    pub(crate) fn id(&self) -> DeviceId {
        self.id
    }

    /// The paper's class of this appliance.
    pub(crate) fn class(&self) -> DeviceClass {
        self.kind.class()
    }

    /// Power drawn by the switched element while ON.
    pub(crate) fn rated_power(&self) -> Watts {
        self.rated_power
    }
}

#[cfg(test)]
impl Appliance {
    /// The paper's reproduction device: a generic 1 kW Type-2 appliance.
    pub(crate) fn paper_type2(id: DeviceId) -> Self {
        Appliance::with_power(id, ApplianceKind::AirConditioner, Watts::from_kw(1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_match_paper() {
        assert_eq!(ApplianceKind::Fan.class(), DeviceClass::Instant);
        assert_eq!(ApplianceKind::HairDryer.class(), DeviceClass::Instant);
        assert_eq!(
            ApplianceKind::AirConditioner.class(),
            DeviceClass::Schedulable
        );
        assert_eq!(ApplianceKind::Fridge.class(), DeviceClass::Schedulable);
    }

    #[test]
    fn every_kind_has_a_name() {
        let kinds = [
            ApplianceKind::Fan,
            ApplianceKind::Television,
            ApplianceKind::Laptop,
            ApplianceKind::HairDryer,
            ApplianceKind::Blender,
            ApplianceKind::Lighting,
            ApplianceKind::AirConditioner,
            ApplianceKind::RoomHeater,
            ApplianceKind::WaterHeater,
            ApplianceKind::Fridge,
            ApplianceKind::WaterCooler,
        ];
        for kind in kinds {
            assert!(!kind.to_string().is_empty(), "{kind:?} has no name");
        }
    }

    #[test]
    fn paper_device_is_1kw_type2() {
        let a = Appliance::paper_type2(DeviceId(3));
        assert_eq!(a.rated_power(), Watts::from_kw(1.0));
        assert_eq!(a.class(), DeviceClass::Schedulable);
        assert_eq!(a.id(), DeviceId(3));
    }

    #[test]
    fn explicit_power_override() {
        let a = Appliance::with_power(DeviceId(0), ApplianceKind::Fridge, Watts(200.0));
        assert_eq!(a.rated_power(), Watts(200.0));
    }

    #[test]
    #[should_panic(expected = "rated power")]
    fn negative_power_panics() {
        Appliance::with_power(DeviceId(0), ApplianceKind::Fan, Watts(-5.0));
    }

    #[test]
    fn display_types() {
        assert_eq!(DeviceClass::Instant.to_string(), "Type-1");
        assert_eq!(DeviceClass::Schedulable.to_string(), "Type-2");
        assert_eq!(DeviceId(4).to_string(), "d4");
    }
}
